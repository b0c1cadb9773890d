package baselines

import (
	"testing"

	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/vm"
)

var (
	_ cpu.InstrPrefetcher = (*NextLineI)(nil)
	_ cpu.InstrPrefetcher = (*Recap)(nil)
)

func testProgram() *program.Program {
	return program.New(program.Config{
		Name: "bl-test-fn", Seed: 77, CodeKB: 192, DynamicInstrs: 120_000,
		CoreFrac: 0.85, OptionalProb: 0.8, RareFrac: 0.04, RareProb: 0.05,
		InstrPerLine: 16, LoadFrac: 0.22, StoreFrac: 0.08,
		CondFrac: 0.3, CondBias: 0.9, NoisyFrac: 0.02, IndirectFrac: 0.15,
		CallFrac: 0.35, SkipFrac: 0.05,
		DataKB: 96, HotDataKB: 16, HotDataFrac: 0.7, ColdDataFrac: 0.05,
		DepLoadFrac: 0.2, KernelFrac: 0.1,
	})
}

func newCore(pf cpu.InstrPrefetcher) *cpu.Core {
	c := cpu.NewCore(cpu.SkylakeConfig())
	c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
	c.Prefetcher = pf
	return c
}

func lukewarmRun(c *cpu.Core, p *program.Program, n int) cpu.RunResult {
	var last cpu.RunResult
	for i := 0; i < n; i++ {
		c.FlushMicroarch()
		last = c.RunInvocation(p.NewInvocation(uint64(i)))
	}
	return last
}

func TestNextLineIssuesPrefetches(t *testing.T) {
	c := newCore(nil)
	nl := NewNextLineI(c.Hier, 1)
	c.Prefetcher = nl
	p := testProgram()
	lukewarmRun(c, p, 1)
	if nl.Prefetches == 0 {
		t.Fatal("next-line issued nothing")
	}
	if c.Hier.PFBuf.Hits == 0 {
		t.Error("no next-line prefetch was ever useful")
	}
}

func TestNextLineDegreeDefaultsAndScaling(t *testing.T) {
	c := newCore(nil)
	nl := NewNextLineI(c.Hier, 0)
	if nl.Degree != 1 {
		t.Errorf("default degree = %d", nl.Degree)
	}
	nl2 := NewNextLineI(c.Hier, 4)
	res := mem.Result{Level: mem.LevelMem}
	nl2.OnFetch(0, 0x4000, 0x4000, res)
	if nl2.Prefetches != 4 {
		t.Errorf("degree-4 issued %d prefetches", nl2.Prefetches)
	}
}

func TestNextLineSmallButPositiveBenefit(t *testing.T) {
	p := testProgram()
	base := lukewarmRun(newCore(nil), p, 3)
	c := newCore(nil)
	c.Prefetcher = NewNextLineI(c.Hier, 1)
	nlRes := lukewarmRun(c, p, 3)
	speedup := float64(base.Cycles)/float64(nlRes.Cycles) - 1
	if speedup < -0.02 {
		t.Errorf("next-line hurt by %.1f%%", -speedup*100)
	}
	// Sequential prefetching helps the straight-line portions of the
	// synthetic streams (which are somewhat more sequential than real
	// interpreter code) but must stay well below Jukebox's ~20%: it cannot
	// anticipate the discontinuities that dominate lukewarm re-fetch.
	if speedup > 0.16 {
		t.Errorf("next-line speedup %.1f%% implausibly high for lukewarm runs", speedup*100)
	}
}

func TestNextLineWellBelowJukeboxStyleCoverage(t *testing.T) {
	p := testProgram()
	c := newCore(nil)
	nl := NewNextLineI(c.Hier, 1)
	c.Prefetcher = nl
	c.Hier.ResetStats()
	lukewarmRun(c, p, 2)
	covered := float64(c.Hier.PFBuf.Hits)
	missed := float64(c.Hier.L1I.Stats.DemandMisses[mem.Instr]) - covered
	if missed <= 0 {
		t.Fatalf("next-line covered everything (%v of %v); discontinuities unmodeled",
			covered, covered+missed)
	}
}

func TestRecapSavesAndRestores(t *testing.T) {
	c := newCore(nil)
	rc := NewRecap(c.Hier)
	c.Prefetcher = rc
	p := testProgram()
	lukewarmRun(c, p, 1)
	if rc.SavedBlocks() == 0 {
		t.Fatal("nothing saved at deschedule")
	}
	// The footprint covers code and data: far more than Jukebox's ~16KB of
	// metadata would describe.
	if rc.Stats.LastMetadataBytes < 16<<10 {
		t.Errorf("RECAP metadata %dB suspiciously small", rc.Stats.LastMetadataBytes)
	}
	before := rc.Stats.RestoredBlocks
	lukewarmRun(c, p, 1)
	if rc.Stats.RestoredBlocks == before {
		t.Error("no restoration on the next invocation")
	}
}

func TestRecapSpeedsUpButTrailsOnLatency(t *testing.T) {
	p := testProgram()
	base := lukewarmRun(newCore(nil), p, 3)
	c := newCore(nil)
	rc := NewRecap(c.Hier)
	c.Prefetcher = rc
	res := lukewarmRun(c, p, 3)
	speedup := float64(base.Cycles)/float64(res.Cycles) - 1
	if speedup <= 0.02 {
		t.Errorf("RECAP speedup %.1f%% should be clearly positive", speedup*100)
	}
	// Restored lines are LLC hits, not L2 hits: demand L2 misses remain.
	if c.Hier.L2.Stats.DemandMisses[mem.Instr] == 0 {
		t.Error("RECAP should not eliminate L2 misses")
	}
}

func TestRecapBandwidthFarExceedsJukebox(t *testing.T) {
	p := testProgram()
	c := newCore(nil)
	rc := NewRecap(c.Hier)
	c.Prefetcher = rc
	c.Hier.ResetStats()
	lukewarmRun(c, p, 2)
	pfBytes := c.Hier.DRAM.Bytes(mem.TrafficPrefetch)
	demand := c.Hier.DRAM.Bytes(mem.TrafficDemand)
	// The paper's critique: indiscriminate restoration can double memory
	// traffic. Our restored footprint rivals demand traffic.
	if pfBytes < demand/2 {
		t.Errorf("RECAP restore traffic %d suspiciously small vs demand %d", pfBytes, demand)
	}
}

func TestRecapPhysicalAddressesBreakOnCompaction(t *testing.T) {
	p := testProgram()
	c := newCore(nil)
	rc := NewRecap(c.Hier)
	c.Prefetcher = rc
	lukewarmRun(c, p, 1) // save a footprint
	// Migrate every page; saved physical addresses are now stale.
	c.MMU.AddressSpace().Compact()
	c.FlushMicroarch()
	c.Hier.ResetStats()
	lukewarmRun(c, p, 1)
	// Restored lines are never referenced: almost all LLC prefetches unused.
	llc := c.Hier.LLC.Stats
	used := llc.PrefetchUsed[mem.Instr] + llc.PrefetchUsed[mem.Data]
	if used > uint64(rc.SavedBlocks()/10) {
		t.Errorf("stale physical restore still mostly useful: %d used", used)
	}
}

func TestRecapResetStats(t *testing.T) {
	c := newCore(nil)
	rc := NewRecap(c.Hier)
	c.Prefetcher = rc
	lukewarmRun(c, testProgram(), 1)
	rc.ResetStats()
	if rc.Stats.SavedBlocks != 0 || rc.Stats.Invocations != 0 {
		t.Error("reset incomplete")
	}
	if rc.SavedBlocks() == 0 {
		t.Error("reset should keep the footprint")
	}
}
