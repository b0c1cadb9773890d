package program

import (
	"testing"
	"unsafe"

	"lukewarm/internal/stats"
)

// TestInstrSize pins Instr's layout at 32 bytes: the core's batch buffers
// hold thousands of instructions each, and a field added in the wrong place
// pads the struct back to 48.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 32", got)
	}
}

// testConfig returns a mid-size function resembling a Go workload.
func testConfig() Config {
	return Config{
		Name:          "test-fn",
		Seed:          1234,
		CodeKB:        400,
		DynamicInstrs: 200_000,
		CoreFrac:      0.8,
		OptionalProb:  0.7,
		RareFrac:      0.05,
		RareProb:      0.05,
		InstrPerLine:  16,
		LoadFrac:      0.25,
		StoreFrac:     0.10,
		CondFrac:      0.30,
		CondBias:      0.9,
		NoisyFrac:     0.03,
		IndirectFrac:  0.2,
		CallFrac:      0.35,
		DataKB:        192,
		HotDataKB:     24,
		HotDataFrac:   0.7,
		ColdDataFrac:  0.05,
		DepLoadFrac:   0.2,
		KernelFrac:    0.15,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.CodeKB = 1 },
		func(c *Config) { c.InstrPerLine = 0 },
		func(c *Config) { c.InstrPerLine = 100 },
		func(c *Config) { c.DynamicInstrs = 10 },
		func(c *Config) { c.CoreFrac = 1.5 },
		func(c *Config) { c.OptionalProb = -0.1 },
		func(c *Config) { c.LoadFrac = 0.8; c.StoreFrac = 0.3 },
		func(c *Config) { c.DataKB = 0 },
		func(c *Config) { c.HotDataKB = c.DataKB + 1 },
	}
	for i, mutate := range mutations {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := testConfig()
	c.CodeKB = 0
	New(c)
}

func TestLayoutCoversConfiguredFootprint(t *testing.T) {
	p := New(testConfig())
	wantLines := 400 * linesPerKB
	if got := p.CodeLines(); got != wantLines {
		t.Errorf("CodeLines = %d, want %d", got, wantLines)
	}
	if p.StaticFootprintBytes() != wantLines*lineSize {
		t.Errorf("StaticFootprintBytes = %d", p.StaticFootprintBytes())
	}
	if p.NumSegments() < 10 {
		t.Errorf("suspiciously few segments: %d", p.NumSegments())
	}
}

func TestLayoutDeterministic(t *testing.T) {
	a, b := New(testConfig()), New(testConfig())
	if a.CodeLines() != b.CodeLines() || a.NumSegments() != b.NumSegments() {
		t.Fatal("layout not deterministic")
	}
	for i := range a.lineAddr {
		if a.lineAddr[i] != b.lineAddr[i] {
			t.Fatal("line addresses differ")
		}
	}
}

func TestLayoutSeedSensitivity(t *testing.T) {
	c2 := testConfig()
	c2.Seed = 999
	a, b := New(testConfig()), New(c2)
	same := true
	for i := 0; i < min(a.CodeLines(), b.CodeLines()); i++ {
		if a.lineAddr[i] != b.lineAddr[i] {
			same = false
			break
		}
	}
	if same && a.NumSegments() == b.NumSegments() {
		t.Error("different seeds produced identical layout")
	}
}

func TestInvocationDeterminism(t *testing.T) {
	p := New(testConfig())
	a, b := p.NewInvocation(7), p.NewInvocation(7)
	for i := 0; ; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if oka != okb {
			t.Fatalf("streams ended at different lengths (instr %d)", i)
		}
		if !oka {
			break
		}
		if ia != ib {
			t.Fatalf("instr %d differs: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestInvocationsDiffer(t *testing.T) {
	p := New(testConfig())
	if p.DynamicLength(1) == p.DynamicLength(2) &&
		stats.Jaccard(p.FootprintBlocks(1), p.FootprintBlocks(2)) == 1.0 {
		t.Error("invocations 1 and 2 are identical; optional segments never vary")
	}
}

func TestDynamicLengthNearTarget(t *testing.T) {
	p := New(testConfig())
	for id := uint64(0); id < 5; id++ {
		n := p.DynamicLength(id)
		if n < 200_000 {
			t.Errorf("inv %d: dynamic length %d below target", id, n)
		}
		if n > 400_000 {
			t.Errorf("inv %d: dynamic length %d wildly above target", id, n)
		}
	}
}

func TestFootprintNearTarget(t *testing.T) {
	p := New(testConfig())
	var s stats.Summary
	for id := uint64(0); id < 8; id++ {
		fp := len(p.FootprintBlocks(id)) * lineSize
		s.Add(float64(fp))
	}
	// With CoreFrac 0.8 and OptionalProb ~0.7, expected coverage is roughly
	// 0.8 + 0.2*0.7 = 94% of 400 KB; allow a generous band.
	mean := s.Mean() / 1024
	if mean < 300 || mean > 410 {
		t.Errorf("mean footprint %vKB, want ~370KB", mean)
	}
}

func TestCommonalityCalibration(t *testing.T) {
	p := New(testConfig())
	sets := make([]map[uint64]struct{}, 6)
	for i := range sets {
		sets[i] = p.FootprintBlocks(uint64(i))
	}
	var s stats.Summary
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			s.Add(stats.Jaccard(sets[i], sets[j]))
		}
	}
	if s.Mean() < 0.85 || s.Mean() > 0.99 {
		t.Errorf("mean Jaccard = %v, want ~0.9", s.Mean())
	}
}

func TestInstructionStreamShape(t *testing.T) {
	p := New(testConfig())
	inv := p.NewInvocation(3)
	var loads, stores, branches, taken, indirect, noisyOrCond, dep, total int
	var kernelInstrs int
	for {
		in, ok := inv.Next()
		if !ok {
			break
		}
		total++
		switch in.Op {
		case OpLoad:
			loads++
			if in.DepLoad {
				dep++
			}
			if in.MemAddr == 0 {
				t.Fatal("load without address")
			}
		case OpStore:
			stores++
		case OpBranch:
			branches++
			if in.Taken {
				taken++
				if in.Target == 0 {
					t.Fatal("taken branch without target")
				}
			}
			if in.Indirect {
				indirect++
			}
			if in.Cond {
				noisyOrCond++
			}
		}
		if in.VAddr >= kernelCodeBase {
			kernelInstrs++
		}
	}
	fl := float64(loads) / float64(total)
	fs := float64(stores) / float64(total)
	if fl < 0.18 || fl > 0.30 {
		t.Errorf("load fraction = %v", fl)
	}
	if fs < 0.06 || fs > 0.14 {
		t.Errorf("store fraction = %v", fs)
	}
	if branches == 0 || taken == 0 || indirect == 0 || noisyOrCond == 0 {
		t.Errorf("branch mix empty: br=%d taken=%d ind=%d cond=%d", branches, taken, indirect, noisyOrCond)
	}
	if dep == 0 {
		t.Error("no dependent loads generated")
	}
	if kernelInstrs == 0 {
		t.Error("no kernel-region instructions generated")
	}
	// Roughly one branch opportunity per line.
	brPerLine := float64(branches) / (float64(total) / 16)
	if brPerLine < 0.2 || brPerLine > 1.0 {
		t.Errorf("branches per line = %v", brPerLine)
	}
}

func TestMemAddrsWithinRegions(t *testing.T) {
	p := New(testConfig())
	inv := p.NewInvocation(5)
	for {
		in, ok := inv.Next()
		if !ok {
			break
		}
		if in.Op != OpLoad && in.Op != OpStore {
			continue
		}
		// The warm set alternates between two generations, so the heap
		// spans hot + 2x warm; the cold region likewise has two
		// generations.
		heapSpan := uint64(p.cfg.HotDataKB<<10) + 2*uint64((p.cfg.DataKB-p.cfg.HotDataKB)<<10) + 8
		inHeap := in.MemAddr >= heapBase && in.MemAddr < heapBase+heapSpan
		inCold := in.MemAddr >= coldBase && in.MemAddr < coldBase+2*coldRegionBytes
		if !inHeap && !inCold {
			t.Fatalf("memory address %#x outside data regions", in.MemAddr)
		}
	}
}

func TestVAddrsWithinCodeRegions(t *testing.T) {
	p := New(testConfig())
	inv := p.NewInvocation(1)
	lines := make(map[uint64]bool, p.CodeLines())
	for _, a := range p.lineAddr {
		lines[a] = true
	}
	for {
		in, ok := inv.Next()
		if !ok {
			break
		}
		if !lines[in.VAddr&^uint64(lineSize-1)] {
			t.Fatalf("instruction at %#x outside laid-out code", in.VAddr)
		}
	}
}

func TestFootprintBlocksMatchesWalk(t *testing.T) {
	p := New(testConfig())
	want := make(map[uint64]struct{})
	inv := p.NewInvocation(9)
	for {
		in, ok := inv.Next()
		if !ok {
			break
		}
		want[in.VAddr&^uint64(lineSize-1)] = struct{}{}
	}
	got := p.FootprintBlocks(9)
	if len(got) != len(want) {
		t.Fatalf("FootprintBlocks = %d lines, walk saw %d", len(got), len(want))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
