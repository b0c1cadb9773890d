package serverless

import (
	"testing"

	"lukewarm/internal/core"
	"lukewarm/internal/mem"
	"lukewarm/internal/workload"
)

func TestMultiCoreConstruction(t *testing.T) {
	s := New(Config{Cores: 4})
	if s.NumCores() != 4 {
		t.Fatalf("NumCores = %d", s.NumCores())
	}
	if s.Core != s.Cores[0] {
		t.Error("Core alias broken")
	}
	// Cores share the LLC and DRAM, but not private levels.
	if s.Cores[0].Hier.LLC != s.Cores[1].Hier.LLC {
		t.Error("LLC not shared")
	}
	if s.Cores[0].Hier.DRAM != s.Cores[1].Hier.DRAM {
		t.Error("DRAM not shared")
	}
	if s.Cores[0].Hier.L2 == s.Cores[1].Hier.L2 {
		t.Error("L2 must be private")
	}
	if s.Cores[0].MMU == s.Cores[1].MMU {
		t.Error("MMU must be private")
	}
}

func TestInvokeOnDifferentCores(t *testing.T) {
	s := New(Config{Cores: 2})
	inst := s.Deploy(mustWorkload(t, "Auth-G"))
	r0 := s.InvokeOn(0, inst)
	r1 := s.InvokeOn(1, inst)
	if r0.Instrs == 0 || r1.Instrs == 0 {
		t.Fatal("invocations empty")
	}
	// Core 1 was cold privately but shares the LLC core 0 warmed, so its
	// run lands between fully-warm and fully-lukewarm.
	if r1.CPI() <= 0 {
		t.Fatal("bad CPI")
	}
	if s.Cores[0].Hier.L1I.Stats.DemandAccesses[mem.Instr] == 0 ||
		s.Cores[1].Hier.L1I.Stats.DemandAccesses[mem.Instr] == 0 {
		t.Error("one core never fetched")
	}
}

func TestSharedLLCWarmsSecondCore(t *testing.T) {
	s := New(Config{Cores: 2})
	inst := s.Deploy(mustWorkload(t, "Auth-G"))
	s.InvokeOn(0, inst) // warms the shared LLC
	onWarmLLC := s.InvokeOn(1, inst)

	s2 := New(Config{Cores: 2})
	inst2 := s2.Deploy(mustWorkload(t, "Auth-G"))
	coldEverything := s2.InvokeOn(1, inst2)

	if onWarmLLC.Cycles >= coldEverything.Cycles {
		t.Errorf("shared LLC gave no benefit: %d vs %d", onWarmLLC.Cycles, coldEverything.Cycles)
	}
}

// TestJukeboxMigratesAcrossCores checks the Sec. 3.4.1 property this whole
// design hinges on: metadata lives in main memory, so an instance scheduled
// onto a different core still replays.
func TestJukeboxMigratesAcrossCores(t *testing.T) {
	jb := core.DefaultConfig()
	s := New(Config{Cores: 2, Jukebox: &jb})
	inst := s.Deploy(mustWorkload(t, "Auth-G"))

	// Record on core 0 (lukewarm).
	s.FlushMicroarch()
	s.InvokeOn(0, inst)
	if inst.Jukebox.ReplayBuffer().Len() == 0 {
		t.Fatal("nothing recorded on core 0")
	}

	// Replay on core 1, fully flushed: the replay must cover misses there.
	s.FlushMicroarch()
	s.Cores[1].Hier.ResetStats()
	s.InvokeOn(1, inst)
	l2 := s.Cores[1].Hier.L2.Stats
	if l2.PrefetchUsed[mem.Instr] == 0 {
		t.Fatal("no covered misses after migrating to core 1")
	}
	cov := float64(l2.PrefetchUsed[mem.Instr]) /
		float64(l2.PrefetchUsed[mem.Instr]+l2.DemandMisses[mem.Instr])
	if cov < 0.5 {
		t.Errorf("cross-core coverage = %.2f", cov)
	}
}

func TestMultiCoreTrafficScales(t *testing.T) {
	tc := TrafficConfig{
		MeanIATms:              3, // saturating load for one core
		Poisson:                true,
		InvocationsPerInstance: 3,
		Seed:                   5,
	}
	run := func(cores int) TrafficResult {
		s := New(Config{Cores: cores})
		for _, n := range []string{"Auth-G", "Email-P", "Pay-N", "Geo-G", "Prof-G", "Curr-N"} {
			s.Deploy(mustWorkload(t, n))
		}
		return mustServe(t, s, tc)
	}
	one := run(1)
	four := run(4)
	if four.Served != one.Served {
		t.Fatalf("served %d vs %d", four.Served, one.Served)
	}
	// More cores drain the same arrivals with less queueing.
	if four.LatencyCycles.Mean() >= one.LatencyCycles.Mean() {
		t.Errorf("4 cores not faster: latency %.0f vs %.0f",
			four.LatencyCycles.Mean(), one.LatencyCycles.Mean())
	}
	if four.BusyFraction >= one.BusyFraction {
		t.Errorf("4-core busy fraction %.2f not below 1-core %.2f",
			four.BusyFraction, one.BusyFraction)
	}
}

func TestPerCorePrefetcherAttachment(t *testing.T) {
	s := New(Config{Cores: 2})
	inst := s.Deploy(mustWorkload(t, "ProdL-G"))
	rec := &countingPF{}
	s.AttachCorePrefetcher(rec)
	s.InvokeOn(1, inst)
	if rec.fetches != 0 {
		t.Error("core-0 prefetcher saw core-1 traffic")
	}
	s.InvokeOn(0, inst)
	if rec.fetches == 0 {
		t.Error("core-0 prefetcher saw nothing on core 0")
	}
}

// countingPF is a minimal hook counter.
type countingPF struct{ fetches int }

func (c *countingPF) InvocationStart(mem.Cycle)                     {}
func (c *countingPF) InvocationEnd(mem.Cycle)                       {}
func (c *countingPF) OnFetch(mem.Cycle, uint64, uint64, mem.Result) { c.fetches++ }
func (c *countingPF) OnBlockRetire(mem.Cycle, uint64, uint64)       {}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
