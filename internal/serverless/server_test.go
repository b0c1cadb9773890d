package serverless

import (
	"fmt"
	"testing"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/pif"
	"lukewarm/internal/workload"
)

func authG(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDeployAndInvoke(t *testing.T) {
	s := New(Config{})
	inst := s.Deploy(authG(t))
	res := s.Invoke(inst)
	if res.Instrs == 0 {
		t.Fatal("invocation ran nothing")
	}
	if inst.Invocations != 1 {
		t.Errorf("Invocations = %d", inst.Invocations)
	}
	if len(s.Instances()) != 1 {
		t.Errorf("Instances = %d", len(s.Instances()))
	}
}

func TestReferenceFasterThanLukewarm(t *testing.T) {
	s := New(Config{})
	inst := s.Deploy(authG(t))
	ref := s.RunReference(inst, 3)

	s2 := New(Config{})
	inst2 := s2.Deploy(authG(t))
	luke := s2.RunLukewarm(inst2, 3)

	ratio := luke.CPI() / ref.CPI()
	// The paper's headline band: +31% to +114%.
	if ratio < 1.25 || ratio > 2.5 {
		t.Errorf("lukewarm/reference CPI ratio = %.2f, want within ~[1.31, 2.14]", ratio)
	}
}

func TestIATSweepMonotoneAndSaturating(t *testing.T) {
	cpi := func(iatMs float64) float64 {
		s := New(Config{CPU: cpu.CharacterizationConfig()})
		inst := s.Deploy(authG(t))
		s.RunReference(inst, 2) // warm up
		return s.RunWithIAT(inst, 3, iatMs).CPI()
	}
	c0 := cpi(0)
	c10 := cpi(10)
	c1000 := cpi(1000)
	c10000 := cpi(10000)
	if !(c0 < c10 && c10 < c1000) {
		t.Errorf("CPI not increasing with IAT: %v %v %v", c0, c10, c1000)
	}
	// Saturation: 10s barely worse than 1s (Fig. 1 flattens past ~1s).
	if c10000 > c1000*1.1 {
		t.Errorf("no saturation: CPI(1s)=%v CPI(10s)=%v", c1000, c10000)
	}
	// The saturated degradation is in the paper's 150-270% normalized band.
	norm := c1000 / c0
	if norm < 1.3 || norm > 3.2 {
		t.Errorf("saturated normalized CPI = %.2f, want ~1.5-2.7", norm)
	}
}

func TestJukeboxDeploymentSpeedsUpLukewarm(t *testing.T) {
	base := New(Config{})
	luke := base.RunLukewarm(base.Deploy(authG(t)), 3)

	jbCfg := core.DefaultConfig()
	jb := New(Config{Jukebox: &jbCfg})
	jbRes := jb.RunLukewarm(jb.Deploy(authG(t)), 3)

	speedup := float64(luke.Cycles)/float64(jbRes.Cycles) - 1
	if speedup < 0.05 {
		t.Errorf("Jukebox speedup = %.1f%%, want clearly positive", speedup*100)
	}
}

func TestPerInstanceJukeboxIsolation(t *testing.T) {
	jbCfg := core.DefaultConfig()
	s := New(Config{Jukebox: &jbCfg})
	a := s.Deploy(authG(t))
	w2, err := workload.ByName("Geo-G")
	if err != nil {
		t.Fatal(err)
	}
	b := s.Deploy(w2)
	if a.Jukebox == nil || b.Jukebox == nil {
		t.Fatal("instances missing Jukebox")
	}
	if a.Jukebox == b.Jukebox {
		t.Fatal("instances share a Jukebox")
	}
	s.FlushMicroarch()
	s.Invoke(a)
	s.Invoke(b)
	if a.Jukebox.ReplayBuffer().Len() == 0 || b.Jukebox.ReplayBuffer().Len() == 0 {
		t.Error("per-instance metadata not recorded")
	}
	// Distinct address spaces: no physical aliasing.
	pa := a.AS.Translate(0x40_0000)
	pb := b.AS.Translate(0x40_0000)
	if pa == pb {
		t.Error("instances share physical frames")
	}
}

func TestCorePrefetcherAttached(t *testing.T) {
	s := New(Config{})
	pf := pif.New(pif.IdealConfig(), s.Core.Hier)
	s.AttachCorePrefetcher(pf)
	inst := s.Deploy(authG(t))
	s.FlushMicroarch()
	s.Invoke(inst)
	if pf.Stats.Appends == 0 {
		t.Error("core prefetcher saw no traffic")
	}
}

func TestCorePrefetcherComposesWithJukebox(t *testing.T) {
	jbCfg := core.DefaultConfig()
	s := New(Config{Jukebox: &jbCfg})
	pf := pif.New(pif.IdealConfig(), s.Core.Hier)
	s.AttachCorePrefetcher(pf)
	inst := s.Deploy(authG(t))
	s.FlushMicroarch()
	s.Invoke(inst)
	if pf.Stats.Appends == 0 || inst.Jukebox.Stats.RecordedEntries == 0 {
		t.Error("composed prefetchers did not both run")
	}
}

func TestInterleavedInstancesThrashEachOther(t *testing.T) {
	s := New(Config{})
	a := s.Deploy(authG(t))
	w2, err := workload.ByName("Auth-P")
	if err != nil {
		t.Fatal(err)
	}
	b := s.Deploy(w2)
	// Warm a.
	s.RunReference(a, 2)
	warm := s.Invoke(a)
	// Interleave several b invocations, then measure a again: real
	// co-residency interleaving (no explicit flush) degrades a.
	for i := 0; i < 3; i++ {
		s.Invoke(b)
	}
	luke := s.Invoke(a)
	if luke.CPI() <= warm.CPI()*1.05 {
		t.Errorf("interleaving b did not degrade a: %.3f vs %.3f", luke.CPI(), warm.CPI())
	}
}

func TestStressorInterleavingApproachesFullFlush(t *testing.T) {
	// Running the stress-ng stand-in between invocations (the paper's
	// real-hardware interleaving methodology, Sec. 2.3) degrades the FUT
	// nearly as much as the simulator's explicit full flush.
	w := authG(t)

	s := New(Config{})
	fut := s.Deploy(w)
	stress := s.Deploy(workload.Workload{Name: "stress-ng", Program: workload.Stressor()})
	s.RunReference(fut, 2)
	warm := s.Invoke(fut)
	s.Invoke(stress)
	stressed := s.Invoke(fut)

	s2 := New(Config{})
	fut2 := s2.Deploy(w)
	s2.RunReference(fut2, 3)
	s2.FlushMicroarch()
	flushed := s2.Invoke(fut2)

	if stressed.CPI() <= warm.CPI()*1.15 {
		t.Errorf("stressor barely degraded the FUT: %.3f vs warm %.3f", stressed.CPI(), warm.CPI())
	}
	// Within ~25% of the full-flush penalty.
	if stressed.CPI() < flushed.CPI()*0.7 {
		t.Errorf("stressor (%.3f) far from full flush (%.3f)", stressed.CPI(), flushed.CPI())
	}
}

func TestAdvanceIATZeroIsNoop(t *testing.T) {
	s := New(Config{})
	before := s.Core.Now()
	s.AdvanceIAT(0)
	if s.Core.Now() != before {
		t.Error("AdvanceIAT(0) advanced the clock")
	}
}

// TestServerReleaseOnce checks that Release poisons every cache a two-core
// server built, the shared LLC included, that a second Release is harmless,
// and that the released server panics on its next invocation. (That the
// LLC enters the free list once is mem's TestReleaseOnce.)
func TestServerReleaseOnce(t *testing.T) {
	s := New(Config{Cores: 2})
	inst := s.Deploy(authG(t))
	s.Invoke(inst)
	s.Release()
	s.Release()
	panics := func(name string, use func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic after Release", name)
			}
		}()
		use()
	}
	for i, c := range s.Cores {
		for _, l := range []*mem.Cache{c.Hier.L1I, c.Hier.L1D, c.Hier.L2, c.Hier.LLC} {
			panics(fmt.Sprintf("core %d %s", i, l.Config().Name), func() { l.Probe(0x40) })
		}
	}
	panics("Invoke", func() { s.Invoke(inst) })
}
