package check

import (
	"fmt"
	"math"
	"reflect"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/topdown"
	"lukewarm/internal/workload"
)

// The metamorphic properties: invariants that relate *pairs* of runs (or a
// run to itself), so they hold regardless of the simulator's absolute
// numbers. Each one pins down a class of bug the differential oracles
// cannot see — cross-structure interactions, regime plumbing, conservation.

// propCacheMonotonic checks the LRU stack property: growing a cache by
// adding ways at a fixed set count can never produce more misses on the same
// stream. (The property is specific to adding ways — changing the set count
// re-hashes addresses and legitimately breaks monotonicity.)
func propCacheMonotonic() error {
	streams := map[string][]access{
		"random":   randomAccesses(11, 40000, 64, 0, 0.25),
		"hot-cold": hotColdAccesses(12, 40000, 8, 2048),
		"strided":  stridedAccesses(20000, 4<<10, 1<<20),
	}
	for name, stream := range streams {
		prev := uint64(math.MaxUint64)
		for _, ways := range []int{2, 4, 8, 16} {
			// 64 sets at every associativity: SizeBytes scales with ways.
			cfg := mem.Config{Name: "mono", SizeBytes: 64 * mem.LineSize * ways,
				Ways: ways, HitLatency: 1, MSHRs: 8}
			c := mem.NewCache(cfg)
			for i, a := range stream {
				c.DemandAccess(mem.Cycle(i), a.addr, mem.Data, a.write)
			}
			misses := c.Stats.DemandMisses[mem.Data]
			if misses > prev {
				return fmt.Errorf("%s stream: %d ways missed %d times, %d ways missed %d — larger cache missed more",
					name, ways/2, prev, ways, misses)
			}
			prev = misses
		}
	}
	return nil
}

// propZeroIAT checks that a zero-length inter-arrival gap is the warm steady
// state: RunWithIAT(…, 0) must be bit-identical to back-to-back reference
// invocations — no thrash, no decay, no eviction may fire for an empty gap.
func propZeroIAT(fn string, n int) error {
	w, err := workload.ByName(fn)
	if err != nil {
		return err
	}
	ref := serverless.New(serverless.Config{})
	refRes := ref.RunReference(ref.Deploy(w), n)
	iat := serverless.New(serverless.Config{})
	iatRes := iat.RunWithIAT(iat.Deploy(w), n, 0)
	if refRes != iatRes {
		return fmt.Errorf("%s: zero-IAT run diverged from reference: CPI %.4f vs %.4f (cycles %d vs %d)",
			fn, iatRes.CPI(), refRes.CPI(), iatRes.Cycles, refRes.Cycles)
	}
	return nil
}

// propJukeboxDisabled checks that a Jukebox with both record and replay
// disabled is bit-identical to no Jukebox at all: the hardware must be
// perfectly transparent when turned off, for every invocation of a lukewarm
// sequence.
func propJukeboxDisabled(fn string, n int) error {
	w, err := workload.ByName(fn)
	if err != nil {
		return err
	}
	run := func(jb *core.Config) ([]mem.Cycle, error) {
		srv := serverless.New(serverless.Config{Jukebox: jb})
		inst := srv.Deploy(w)
		out := make([]mem.Cycle, n)
		for i := range out {
			srv.FlushMicroarch()
			out[i] = srv.Invoke(inst).Cycles
		}
		return out, nil
	}
	base, err := run(nil)
	if err != nil {
		return err
	}
	off := core.DefaultConfig()
	off.RecordEnabled = false
	off.ReplayEnabled = false
	disabled, err := run(&off)
	if err != nil {
		return err
	}
	for i := range base {
		if base[i] != disabled[i] {
			return fmt.Errorf("%s invocation %d: disabled Jukebox took %d cycles, no Jukebox took %d — hardware not transparent when off",
				fn, i, disabled[i], base[i])
		}
	}
	return nil
}

// propTopdownConservation checks the Top-Down identity on real runs, in both
// regimes: the category cycles sum to the measured cycles, no bucket is
// negative, and CPI contributions sum to CPI.
func propTopdownConservation(fn string, n int) error {
	w, err := workload.ByName(fn)
	if err != nil {
		return err
	}
	srv := serverless.New(serverless.Config{})
	inst := srv.Deploy(w)
	for i := 0; i < 2*n; i++ {
		if i >= n {
			srv.FlushMicroarch() // second half runs lukewarm
		}
		res := srv.Invoke(inst)
		if err := faults.Audit(res); err != nil {
			return fmt.Errorf("%s invocation %d: %w", fn, i, err)
		}
		var cpiSum float64
		for c := topdown.Category(0); c < topdown.NumCategories; c++ {
			cpiSum += res.Stack.CPIOf(c)
		}
		if diff := math.Abs(cpiSum - res.Stack.CPI()); diff > 1e-9*res.Stack.CPI() {
			return fmt.Errorf("%s invocation %d: per-category CPIs sum to %.9f, CPI is %.9f",
				fn, i, cpiSum, res.Stack.CPI())
		}
	}
	return nil
}

// trafficConfig is the property suite's canonical overloaded traffic run:
// bursty arrivals, a tight queue bound and deadline (so shedding triggers),
// and a short keep-alive (so cold starts trigger).
func trafficConfig() serverless.TrafficConfig {
	cfg := serverless.DefaultTrafficConfig()
	cfg.MeanIATms = 2
	cfg.HeavyTail = true
	cfg.InvocationsPerInstance = 12
	cfg.KeepAlive = sched.FixedTimeout(1)
	cfg.ColdStartMs = 5
	cfg.MaxQueue = 2
	cfg.ShedAfterMs = 4
	cfg.Seed = 7
	return cfg
}

// runTraffic deploys nFuncs suite functions on a fresh server and serves the
// canonical traffic.
func runTraffic(nFuncs int) (serverless.TrafficResult, int, error) {
	srv := serverless.New(serverless.Config{Cores: 2})
	suite := workload.Suite()[:nFuncs]
	for _, w := range suite {
		srv.Deploy(w)
	}
	res, err := srv.ServeTraffic(trafficConfig())
	return res, nFuncs * trafficConfig().InvocationsPerInstance, err
}

// propTrafficConservation checks arrival conservation on an overloaded
// ServeTraffic run: every offered invocation is either completed or shed
// (the engine runs to drain, so nothing stays in flight), the per-function
// breakdown sums to the fleet totals, and the faults-package traffic audit
// passes.
func propTrafficConservation() error {
	res, offered, err := runTraffic(3)
	if err != nil {
		return err
	}
	if res.Shed == 0 {
		return fmt.Errorf("overload valve never fired: config no longer exercises shedding")
	}
	if res.ColdStarts == 0 {
		return fmt.Errorf("keep-alive never evicted: config no longer exercises cold starts")
	}
	if got := res.Served + res.Shed; got != offered {
		return fmt.Errorf("offered %d invocations, accounted %d (%d served + %d shed)",
			offered, got, res.Served, res.Shed)
	}
	var served, shed, cold int
	for _, f := range res.PerFunction {
		served += f.Served
		shed += f.Shed
		cold += f.ColdStarts
	}
	if served != res.Served || shed != res.Shed || cold != res.ColdStarts {
		return fmt.Errorf("per-function breakdown (%d/%d/%d) disagrees with fleet totals (%d/%d/%d)",
			served, shed, cold, res.Served, res.Shed, res.ColdStarts)
	}
	return faults.AuditTraffic(res)
}

// propTrafficDeterminism checks that two fresh servers serving the identical
// traffic configuration produce the identical result — the foundation the
// content-addressed result cache and the golden harness stand on.
func propTrafficDeterminism() error {
	a, _, err := runTraffic(2)
	if err != nil {
		return err
	}
	b, _, err := runTraffic(2)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("identical traffic configs produced different results:\n%+v\n%+v", a, b)
	}
	return nil
}

// propLukewarmNotFaster checks the paper's premise as an inequality: a full
// microarchitectural flush before an invocation can never make it faster
// than the warm reference run of the same instance.
func propLukewarmNotFaster(fn string, n int) error {
	w, err := workload.ByName(fn)
	if err != nil {
		return err
	}
	srv := serverless.New(serverless.Config{CPU: cpu.SkylakeConfig()})
	inst := srv.Deploy(w)
	warm := srv.RunReference(inst, n)
	srv.FlushMicroarch()
	luke := srv.Invoke(inst)
	if luke.Cycles < warm.Cycles {
		return fmt.Errorf("%s: lukewarm invocation took %d cycles, warm took %d — flush made it faster",
			fn, luke.Cycles, warm.Cycles)
	}
	return nil
}

// propertyChecks enumerates the metamorphic battery.
func propertyChecks() []namedCheck {
	return []namedCheck{
		{"property/cache-monotonic", propCacheMonotonic},
		{"property/zero-iat-warm-steady", func() error { return propZeroIAT("Auth-G", 3) }},
		{"property/jukebox-disabled-bit-identical", func() error { return propJukeboxDisabled("Email-P", 3) }},
		{"property/topdown-conservation", func() error { return propTopdownConservation("Auth-G", 2) }},
		{"property/traffic-conservation", propTrafficConservation},
		{"property/traffic-determinism", propTrafficDeterminism},
		{"property/lukewarm-not-faster", func() error { return propLukewarmNotFaster("Pay-N", 3) }},
	}
}
