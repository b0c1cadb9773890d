package mem

import "testing"

func newTestHierarchy() *Hierarchy { return NewHierarchy(SkylakeHierarchy()) }

func TestHierarchyColdFetchGoesToMemory(t *testing.T) {
	h := newTestHierarchy()
	res := h.FetchInstr(0, 0x40_0000)
	if res.Level != LevelMem || !res.L2Miss {
		t.Fatalf("cold fetch: %+v", res)
	}
	cfg := h.Config()
	wantMin := cfg.L1I.HitLatency + cfg.L2.HitLatency + cfg.LLC.HitLatency + 1
	if res.Latency < wantMin {
		t.Errorf("latency = %d, want >= %d", res.Latency, wantMin)
	}
	// Second fetch of the same block: L1 hit.
	res = h.FetchInstr(500, 0x40_0000)
	if res.Level != LevelL1 || res.Latency != cfg.L1I.HitLatency {
		t.Errorf("warm fetch: %+v", res)
	}
}

func TestHierarchyFillsAllLevelsOnPath(t *testing.T) {
	h := newTestHierarchy()
	h.FetchInstr(0, 0x1000)
	if !h.L1I.Probe(0x1000) || !h.L2.Probe(0x1000) || !h.LLC.Probe(0x1000) {
		t.Error("demand fill did not populate the path")
	}
	if h.L1D.Probe(0x1000) {
		t.Error("instruction fetch leaked into L1D")
	}
}

func TestHierarchyL2HitAfterL1Evict(t *testing.T) {
	h := newTestHierarchy()
	h.FetchInstr(0, 0x1000)
	h.L1I.Flush()
	res := h.FetchInstr(100, 0x1000)
	if res.Level != LevelL2 || res.L2Miss {
		t.Fatalf("expected L2 hit: %+v", res)
	}
	cfg := h.Config()
	if res.Latency != cfg.L1I.HitLatency+cfg.L2.HitLatency {
		t.Errorf("latency = %d", res.Latency)
	}
}

func TestHierarchyLLCHitAfterL2Flush(t *testing.T) {
	h := newTestHierarchy()
	h.FetchInstr(0, 0x1000)
	h.L1I.Flush()
	h.L2.Flush()
	res := h.FetchInstr(100, 0x1000)
	if res.Level != LevelLLC || !res.L2Miss {
		t.Fatalf("expected LLC hit with L2Miss: %+v", res)
	}
	// The path is refilled.
	if !h.L1I.Probe(0x1000) || !h.L2.Probe(0x1000) {
		t.Error("LLC hit did not refill inner levels")
	}
}

func TestPerfectL1I(t *testing.T) {
	h := newTestHierarchy()
	h.PerfectL1I = true
	res := h.FetchInstr(0, 0xABCDEF00)
	if res.Level != LevelL1 || res.Latency != h.Config().L1I.HitLatency || res.L2Miss {
		t.Errorf("perfect I-cache fetch: %+v", res)
	}
	if h.DRAM.TotalBytes() != 0 {
		t.Errorf("perfect I-cache generated memory traffic")
	}
}

func TestDataAccessAndNextLinePrefetcher(t *testing.T) {
	h := newTestHierarchy()
	res := h.AccessData(0, 0x8000, false)
	if res.Level != LevelMem {
		t.Fatalf("cold data access: %+v", res)
	}
	// The next-line prefetcher should have pulled 0x8040 into L1D.
	if !h.L1D.Probe(0x8040) {
		t.Error("next-line prefetch missing")
	}
	// It is marked prefetched: first demand access counts PrefetchUsed.
	h.AccessData(1000, 0x8040, false)
	if h.L1D.Stats.PrefetchUsed[Data] != 1 {
		t.Errorf("PrefetchUsed = %d", h.L1D.Stats.PrefetchUsed[Data])
	}
}

func TestNextLinePrefetcherDisabled(t *testing.T) {
	cfg := SkylakeHierarchy()
	cfg.L1DNextLine = false
	h := NewHierarchy(cfg)
	h.AccessData(0, 0x8000, false)
	if h.L1D.Probe(0x8040) {
		t.Error("next-line prefetch fired while disabled")
	}
}

func TestPrefetchIntoL2(t *testing.T) {
	h := newTestHierarchy()
	ready := h.PrefetchIntoL2(0, 0x2000, TrafficPrefetch)
	if ready <= 0 {
		t.Fatalf("ready = %d", ready)
	}
	if !h.L2.Probe(0x2000) || !h.LLC.Probe(0x2000) {
		t.Error("prefetch did not fill L2/LLC")
	}
	if h.L1I.Probe(0x2000) {
		t.Error("L2 prefetch leaked into L1I")
	}
	if h.DRAM.Bytes(TrafficPrefetch) != LineSize {
		t.Errorf("prefetch traffic = %d", h.DRAM.Bytes(TrafficPrefetch))
	}
	// Demand fetch after the prefetch ready time hits in L2 as a covered miss.
	res := h.FetchInstr(ready+10, 0x2000)
	if res.Level != LevelL2 || !res.L2PrefetchHit {
		t.Errorf("covered fetch: %+v", res)
	}
	// Re-prefetching an L2-resident block is free.
	before := h.DRAM.TotalBytes()
	if got := h.PrefetchIntoL2(1000, 0x2000, TrafficPrefetch); got != 1000 {
		t.Errorf("resident prefetch ready = %d, want 1000", got)
	}
	if h.DRAM.TotalBytes() != before {
		t.Error("resident prefetch generated traffic")
	}
}

func TestPrefetchIntoL2FromLLC(t *testing.T) {
	h := newTestHierarchy()
	h.FetchInstr(0, 0x3000) // fills all levels
	h.L1I.Flush()
	h.L2.Flush()
	before := h.DRAM.TotalBytes()
	ready := h.PrefetchIntoL2(100, 0x3000, TrafficPrefetch)
	if want := Cycle(100) + h.Config().LLC.HitLatency; ready != want {
		t.Errorf("LLC-sourced prefetch ready = %d, want %d", ready, want)
	}
	if h.DRAM.TotalBytes() != before {
		t.Error("LLC-sourced prefetch touched DRAM")
	}
}

func TestPrefetchIntoL1I(t *testing.T) {
	h := newTestHierarchy()
	ready := h.PrefetchIntoL1I(0, 0x5000, TrafficPrefetch)
	if !h.L1I.Probe(0x5000) || !h.L2.Probe(0x5000) {
		t.Error("L1I prefetch did not fill path")
	}
	res := h.FetchInstr(ready+1, 0x5000)
	if res.Level != LevelL1 {
		t.Errorf("fetch after L1I prefetch: %+v", res)
	}
	// From L2.
	h.L1I.Flush()
	before := h.DRAM.TotalBytes()
	ready = h.PrefetchIntoL1I(1000, 0x5000, TrafficPrefetch)
	if want := Cycle(1000) + h.Config().L2.HitLatency; ready != want {
		t.Errorf("L2-sourced ready = %d, want %d", ready, want)
	}
	if h.DRAM.TotalBytes() != before {
		t.Error("L2-sourced L1I prefetch touched DRAM")
	}
	// Resident: no-op.
	if got := h.PrefetchIntoL1I(2000, 0x5000, TrafficPrefetch); got != 2000 {
		t.Errorf("resident ready = %d", got)
	}
	// From LLC.
	h.L1I.Flush()
	h.L2.Flush()
	ready = h.PrefetchIntoL1I(3000, 0x5000, TrafficPrefetch)
	if want := Cycle(3000) + h.Config().L2.HitLatency + h.Config().LLC.HitLatency; ready != want {
		t.Errorf("LLC-sourced ready = %d, want %d", ready, want)
	}
}

func TestFlushAllObliteratesState(t *testing.T) {
	h := newTestHierarchy()
	for i := uint64(0); i < 100; i++ {
		h.FetchInstr(Cycle(i), i*64)
		h.AccessData(Cycle(i), 0x100000+i*64, i%3 == 0)
	}
	h.FlushAll()
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.LLC} {
		if c.CountValid() != 0 {
			t.Errorf("%s has %d valid lines after FlushAll", c.Config().Name, c.CountValid())
		}
	}
}

func TestThrashFraction(t *testing.T) {
	h := newTestHierarchy()
	for i := uint64(0); i < 400; i++ {
		h.FetchInstr(Cycle(i), i*64)
	}
	valid := h.L1I.CountValid() + h.L2.CountValid() + h.LLC.CountValid()
	var state uint64 = 1
	rng := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	h.ThrashFraction(0.9, rng)
	after := h.L1I.CountValid() + h.L2.CountValid() + h.LLC.CountValid()
	if after >= valid/2 {
		t.Errorf("thrash 0.9 left %d of %d lines", after, valid)
	}
}

func TestWritebackTrafficOnDirtyEvictions(t *testing.T) {
	// Tiny hierarchy to force LLC evictions quickly.
	cfg := HierarchyConfig{
		L1I:  Config{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4},
		L1D:  Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4},
		L2:   Config{Name: "L2", SizeBytes: 2 << 10, Ways: 2, HitLatency: 12},
		LLC:  Config{Name: "LLC", SizeBytes: 4 << 10, Ways: 2, HitLatency: 30},
		DRAM: DefaultDRAMConfig(),
	}
	h := NewHierarchy(cfg)
	// Write a large footprint so dirty lines cascade out of the LLC.
	for i := uint64(0); i < 4096; i++ {
		h.AccessData(Cycle(i), i*64, true)
	}
	if h.DRAM.Bytes(TrafficWriteback) == 0 {
		t.Error("no writeback traffic observed")
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := newTestHierarchy()
	h.FetchInstr(0, 0x1000)
	h.ResetStats()
	if h.L1I.Stats.DemandAccesses[Instr] != 0 || h.DRAM.TotalBytes() != 0 {
		t.Error("ResetStats incomplete")
	}
	// Contents survive.
	if !h.L1I.Probe(0x1000) {
		t.Error("ResetStats destroyed contents")
	}
}

func TestDrainUnusedPrefetchesHierarchy(t *testing.T) {
	h := newTestHierarchy()
	h.PrefetchIntoL2(0, 0x9000, TrafficPrefetch)
	h.DrainUnusedPrefetches()
	if h.L2.Stats.PrefetchEvictedUnused[Instr] != 1 {
		t.Errorf("L2 unused prefetch not drained: %+v", h.L2.Stats)
	}
}

func TestConfigPresets(t *testing.T) {
	sky := SkylakeHierarchy()
	if sky.L2.SizeBytes != 1<<20 {
		t.Errorf("Skylake L2 = %d", sky.L2.SizeBytes)
	}
	bdw := BroadwellHierarchy()
	if bdw.L2.SizeBytes != 256<<10 {
		t.Errorf("Broadwell L2 = %d", bdw.L2.SizeBytes)
	}
	ch := CharacterizationHierarchy()
	if ch.LLC.SizeBytes != 16<<20 {
		t.Errorf("Characterization LLC = %d", ch.LLC.SizeBytes)
	}
	// All presets must construct cleanly.
	for _, cfg := range []HierarchyConfig{sky, bdw, ch} {
		NewHierarchy(cfg)
	}
}

// TestHierarchyPathsAllocs pins the single-scan data path at zero heap
// allocations per access: demand fetches and data accesses over the
// representative streams, and every prefetch entry point.
func TestHierarchyPathsAllocs(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	h.EnablePrefetchBuffer(16)
	data, code := mixedDataStream(4096), fetchStream(4096)
	var now Cycle
	allocs := testing.AllocsPerRun(4, func() {
		for i, a := range data.addrs {
			now += h.AccessData(now, a, data.writes[i]).Latency
			now += h.FetchInstr(now, code.addrs[i]).Latency
			next := code.addrs[i] + 8*LineSize
			h.PrefetchIntoL2(now, next, TrafficPrefetch)
			h.PrefetchIntoBuffer(now, next+LineSize, TrafficPrefetch)
			h.PrefetchIntoL1I(now, next+2*LineSize, TrafficPrefetch)
			h.PrefetchLineIntoLLC(now, a+4096, Data, TrafficPrefetch)
		}
	})
	if allocs != 0 {
		t.Fatalf("data path allocates %.2f objects per pass, want 0", allocs)
	}
}
