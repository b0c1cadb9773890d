package mem

import "testing"

func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache(Config{Name: "b", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4})
	c.fill(0, 0x1000, Instr, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(Cycle(i), 0x1000, Instr, false)
	}
}

func BenchmarkCacheAccessMiss(b *testing.B) {
	c := NewCache(Config{Name: "b", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(Cycle(i), uint64(i)<<LineShift, Data, false)
	}
}

func BenchmarkCacheFillEvict(b *testing.B) {
	c := NewCache(Config{Name: "b", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.fill(Cycle(i), uint64(i)<<LineShift, Data, false, 0)
	}
}

func BenchmarkHierarchyFetchWarm(b *testing.B) {
	h := NewHierarchy(SkylakeHierarchy())
	h.FetchInstr(0, 0x4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FetchInstr(Cycle(i), 0x4000)
	}
}

func BenchmarkHierarchyFetchCold(b *testing.B) {
	h := NewHierarchy(SkylakeHierarchy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FetchInstr(Cycle(i), uint64(i)<<LineShift)
	}
}

func BenchmarkHierarchyDataAccess(b *testing.B) {
	h := NewHierarchy(SkylakeHierarchy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessData(Cycle(i), uint64(i%4096)<<3, i%4 == 0)
	}
}

func BenchmarkPrefetchIntoL2(b *testing.B) {
	h := NewHierarchy(SkylakeHierarchy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PrefetchIntoL2(Cycle(i), uint64(i)<<LineShift, TrafficPrefetch)
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := NewDRAM(DRAMConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(Cycle(i*10), TrafficDemand)
	}
}

// pathStream is a precomputed access stream for the representative path
// benchmarks: the generator runs once, outside the timed loop.
type pathStream struct {
	addrs  []uint64
	writes []bool
}

// benchRNG is a xorshift64 stream for the benchmark generators.
type benchRNG uint64

func (r *benchRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = benchRNG(x)
	return x
}

// mixedDataStream mixes hot (L1-D-resident), warm (L2-resident) and cold
// (streaming) data with about 25% stores. It is sized like warm-ref's data
// side: about 43% of accesses miss the L1-D and hit the L2, and the
// next-line prefetcher fills about half a line per access.
func mixedDataStream(n int) pathStream {
	const (
		hotBase  = 0x1000_0000
		hotSize  = 12 << 10
		warmBase = 0x2000_0000
		warmSize = 640 << 10
		coldBase = 0x4000_0000
	)
	rng := benchRNG(0x9E3779B97F4A7C15)
	s := pathStream{addrs: make([]uint64, n), writes: make([]bool, n)}
	cold := uint64(coldBase)
	for i := range s.addrs {
		r := rng.next()
		var a uint64
		switch p := r % 100; {
		case p < 59:
			a = hotBase + (r>>8)%hotSize
		case p < 97:
			a = warmBase + (r>>8)%warmSize
		default:
			cold += 8
			a = cold
		}
		s.addrs[i] = a &^ 7
		s.writes[i] = (r>>40)%4 == 0
	}
	return s
}

// fetchStream walks a ~600 KB code footprint in sequential runs of one to
// eight 64 B blocks, like a function's instruction stream: three runs in
// four start in a hot 16 KB region that stays L1-I-resident, the rest
// anywhere in the footprint, which overflows the L1-I and fits the L2.
func fetchStream(n int) pathStream {
	const (
		codeBase  = 0x40_0000
		codeLines = 600 << 10 / LineSize
		hotLines  = 16 << 10 / LineSize
	)
	rng := benchRNG(0x2545F4914F6CDD1D)
	s := pathStream{addrs: make([]uint64, n)}
	for i := 0; i < n; {
		r := rng.next()
		line := r % codeLines
		if (r>>16)%4 != 0 {
			line = r % hotLines
		}
		for run := 1 + (r>>32)%8; run > 0 && i < n; run-- {
			s.addrs[i] = codeBase + (line%codeLines)<<LineShift
			line++
			i++
		}
	}
	return s
}

// benchStreamLen is the length of the precomputed path streams; one
// benchmark iteration is one pass over a stream, so even `make bench`'s
// single iteration times 64 Ki accesses.
const benchStreamLen = 1 << 16

// BenchmarkHierarchyDataMixed times AccessData over mixedDataStream and
// reports ns/access plus the stream's L2-hit share and prefetch fills per
// access, so a run shows the mix it measured.
func BenchmarkHierarchyDataMixed(b *testing.B) {
	s := mixedDataStream(benchStreamLen)
	h := NewHierarchy(SkylakeHierarchy())
	var now Cycle
	pass := func() {
		for i, a := range s.addrs {
			now += h.AccessData(now, a, s.writes[i]).Latency
		}
	}
	pass() // warm every level
	h.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	acc := float64(h.L1D.Stats.DemandAccesses[Data])
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/acc, "ns/access")
	b.ReportMetric(float64(h.L2.Stats.DemandHits[Data])/acc, "l2hits/access")
	b.ReportMetric(float64(h.L1D.Stats.PrefetchFills[Data])/acc, "pffills/access")
}

// BenchmarkHierarchyFetchFootprint times FetchInstr over fetchStream and
// reports ns/access and the stream's L2-hit share.
func BenchmarkHierarchyFetchFootprint(b *testing.B) {
	s := fetchStream(benchStreamLen)
	h := NewHierarchy(SkylakeHierarchy())
	var now Cycle
	pass := func() {
		for _, a := range s.addrs {
			now += h.FetchInstr(now, a).Latency
		}
	}
	pass()
	h.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	acc := float64(h.L1I.Stats.DemandAccesses[Instr])
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/acc, "ns/access")
	b.ReportMetric(float64(h.L2.Stats.DemandHits[Instr])/acc, "l2hits/access")
}
