package cluster

import (
	"errors"
	"fmt"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// tinyWorkloads builds two tiny functions: 4 KB of code and about 1100
// instructions per invocation, so a whole fleet run takes milliseconds and
// every stream is short enough to walk ahead.
func tinyWorkloads(tb testing.TB) []workload.Workload {
	var ws []workload.Workload
	for i := 0; i < 2; i++ {
		p, err := program.NewErr(program.Config{
			Name: fmt.Sprintf("tiny-%d", i), Seed: program.Mix(0x7141, uint64(i)),
			CodeKB: 4, DynamicInstrs: 600, InstrPerLine: 16,
			CoreFrac: 0.8, OptionalProb: 0.7, RareFrac: 0.05, RareProb: 0.05,
			LoadFrac: 0.25, StoreFrac: 0.1, CondFrac: 0.3, CondBias: 0.9, NoisyFrac: 0.02,
			IndirectFrac: 0.1, CallFrac: 0.3, SkipFrac: 0.04,
			DataKB: 16, HotDataKB: 4, HotDataFrac: 0.6, ColdDataFrac: 0.05, DepLoadFrac: 0.2, KernelFrac: 0.1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		ws = append(ws, workload.Workload{Name: p.Config().Name, App: "tiny", Lang: workload.Go, Program: p})
	}
	return ws
}

// FuzzClusterConfig holds Run to the configuration contract: a Config that
// Validate accepts runs to completion and passes Audit (and AuditPredict on
// every node when pre-warming is armed); one it rejects fails with an error
// wrapping cfgerr.ErrBadConfig, and Run refuses it the same way.
//
// fleet picks the fleet: bits 0-1 one to four nodes, bit 2 one or two
// functions, bit 3 one or two cores a node, bit 4 Jukebox, bit 5 an EWMA
// pre-warmer, bit 6 bursty arrivals, bit 7 a per-node placer built per node
// rather than shared. arm picks the fault kinds: bit 0 node crashes, bit 1
// instance crashes, bit 2 dispatch flakes; bit 3 leaves the plan nil.
// placer picks the fleet placer and keep the keep-alive policy, as in
// serverless.FuzzTrafficConfig.
func FuzzClusterConfig(f *testing.F) {
	ws := tinyWorkloads(f)
	f.Add(uint8(0b0111_0111), uint8(0b0111), int8(6), 4.0,
		0.05, 0.1, 500.0, 20.0,
		int8(2), 1.0, 0.25, int8(3), 20.0,
		1.0, 2.0, 4.0, 200.0,
		uint8(2), 20.0, uint8(3), uint64(1))
	f.Add(uint8(0b1011_1011), uint8(0b0011), int8(10), 1.0,
		0.5, 0.5, 50.0, 10.0,
		int8(0), 0.0, 0.0, int8(0), 0.0,
		0.0, 0.0, 0.0, 0.0,
		uint8(3), 5.0, uint8(1|4<<2), uint64(2))
	f.Add(uint8(0b0000_0000), uint8(0b1000), int8(3), 50.0,
		0.0, 0.0, 0.0, 0.0,
		int8(1), 2.0, 0.5, int8(1), 5.0,
		0.0, 3.0, 0.0, 1000.0,
		uint8(1), 0.0, uint8(2), uint64(3))
	f.Add(uint8(0b0010_0001), uint8(0b0001), int8(0), -1.0,
		-0.1, 1.5, -5.0, 0.0,
		int8(-1), -1.0, -1.0, int8(-2), -3.0,
		4.0, 2.0, 1.0, -1.0,
		uint8(2), -3.0, uint8(3), uint64(4))

	f.Fuzz(func(t *testing.T, fleet, arm uint8, invocs int8, iatMs float64,
		crashP, flakeP, mtbfMs, downMs float64,
		retryMax int8, backoffMs, hedgeMs float64, ejectAfter int8, ejectMs float64,
		shedLowMs, recordOnlyMs, rejectMs, deadlineMs float64,
		keep uint8, keepMs float64, placer uint8, seed uint64) {
		node := serverless.Config{CPU: cpu.SkylakeConfig(), Cores: 1 + int(fleet>>3&1)}
		if fleet&16 != 0 {
			jb := core.DefaultConfig()
			node.Jukebox = &jb
		}
		cfg := Config{
			Nodes:     1 + int(fleet&3),
			Workloads: ws[:1+int(fleet>>2&1)],
			Node:      node,
			Traffic: serverless.TrafficConfig{
				MeanIATms: iatMs, Bursty: fleet&64 != 0,
				InvocationsPerInstance: int(invocs), ColdStartMs: 1, Seed: seed,
			},
			DeadlineMs:        deadlineMs,
			RetryMax:          int(retryMax),
			RetryBackoffMs:    backoffMs,
			HedgeDelayMinMs:   hedgeMs,
			EjectAfter:        int(ejectAfter),
			EjectMs:           ejectMs,
			ShedLowAtMs:       shedLowMs,
			RecordOnlyAtMs:    recordOnlyMs,
			RejectAtMs:        rejectMs,
			LowPriority:       []string{ws[0].Name},
			InstanceCrashProb: crashP,
			DispatchFlakeProb: flakeP,
			NodeCrashMTBFms:   mtbfMs,
			NodeDownMs:        downMs,
		}
		if arm&8 == 0 {
			var kinds []faults.Kind
			for i, k := range []faults.Kind{faults.NodeCrash, faults.InstanceCrash, faults.DispatchFlake} {
				if arm>>i&1 != 0 {
					kinds = append(kinds, k)
				}
			}
			cfg.Faults = faults.NewPlan(seed, kinds...)
		}
		if fleet&32 != 0 {
			cfg.Traffic.Predict = &predict.Config{Forecaster: predict.EWMA(0)}
		}
		switch keep % 4 {
		case 1:
			cfg.Traffic.KeepAlive = sched.NoEvict()
		case 2:
			cfg.Traffic.KeepAlive = sched.FixedTimeout(keepMs)
		case 3:
			cfg.Traffic.KeepAlive = sched.HybridHistogram(sched.HybridConfig{FallbackMs: keepMs})
		}
		switch arg := int(placer / 5); placer % 5 {
		case 1:
			cfg.FleetPlacer = sched.EarliestAvailable()
		case 2:
			cfg.FleetPlacer = sched.RoundRobin()
		case 3:
			cfg.FleetPlacer = sched.StickyAffinity(arg - 8)
		case 4:
			cfg.FleetPlacer = sched.JukeboxAware(float64(arg) / 4)
		}
		if fleet&128 != 0 {
			cfg.NodePlacer = func() sched.Placer { return sched.RoundRobin() }
		}

		if err := cfg.Validate(); err != nil {
			if !errors.Is(err, cfgerr.ErrBadConfig) {
				t.Fatalf("Validate error %v does not wrap ErrBadConfig", err)
			}
			if _, err := Run(cfg); !errors.Is(err, cfgerr.ErrBadConfig) {
				t.Fatalf("Run accepted a config Validate rejects: err = %v", err)
			}
			return
		}
		// A node crash is an event whether or not anything arrives, so a
		// fleet simulates span/MTBF of them: keep the runs small.
		if mtbfMs > 0 && arm&9 == 1 && iatMs*float64(invocs)/mtbfMs > 1e5 {
			t.Skip("too many node crashes to simulate quickly")
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run rejected a validated config: %v", err)
		}
		if err := Audit(&res); err != nil {
			t.Fatal(err)
		}
		// A span near the uint64 cycle clock's range means a float-to-cycle
		// conversion overflowed; Go leaves its result implementation-defined,
		// so the run would differ by GOARCH.
		if span := res.SimulatedMs * node.CPU.FreqGHz * 1e6; !(span < 1<<62) {
			t.Fatalf("simulated span %g cycles: the cycle clock overflowed", span)
		}
		if cfg.Traffic.Predict != nil {
			for i := range res.PerNode {
				if err := faults.AuditPredict(res.PerNode[i].Prewarm, "ewma"); err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
			}
		}
	})
}
