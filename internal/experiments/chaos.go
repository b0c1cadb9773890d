package experiments

import (
	"bytes"
	"fmt"

	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/faults"
	"lukewarm/internal/program"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/trace"
	"lukewarm/internal/workload"
)

// ChaosOutcome classifies one fault-injection cell.
type ChaosOutcome string

// The three cell outcomes.
const (
	// ChaosPass: the fault was injected and the system absorbed it with no
	// loss of function (or there was nothing for it to hit).
	ChaosPass ChaosOutcome = "PASS"
	// ChaosDegraded: the fault cost something — a replay generation, shed
	// requests, a rejected stream — but the system degraded along a designed
	// path and every invariant held.
	ChaosDegraded ChaosOutcome = "DEGRADED"
	// ChaosFail: a panic, an invariant violation, undetected corruption, or
	// a degraded run that exceeded its performance bound.
	ChaosFail ChaosOutcome = "FAIL"
)

// ChaosCell is one (function, fault) cell of the chaos matrix.
type ChaosCell struct {
	Function string
	Fault    faults.Kind
	Outcome  ChaosOutcome
	Detail   string
}

// ChaosResult backs the `lukewarm chaos` sweep: the full fault matrix run
// against the representative functions.
type ChaosResult struct {
	Seed  uint64
	Cells []ChaosCell
}

// Chaos sweeps every fault kind across the representative functions (or
// opt.Functions when set), one deterministic plan per cell seeded from
// opt.Seed. Each (function, fault) pair is one cached cell whose Variant
// names the fault and the seed. A cell that panics is caught and reported as
// FAIL — the sweep itself always completes.
func Chaos(opt Options) (ChaosResult, error) {
	opt = opt.withDefaults()
	out := ChaosResult{Seed: opt.Seed}
	if len(opt.Functions) == 0 {
		opt.Functions = workload.Representatives()
	}
	ws, err := opt.suite()
	if err != nil {
		return out, err
	}
	var cells []runner.Cell
	for _, w := range ws {
		for _, k := range faults.Kinds() {
			cells = append(cells, runner.Cell{Workload: w.Name,
				Variant: fmt.Sprintf("chaos-%s-seed%d", k, opt.Seed),
				Exec:    func(runner.Cell) (measured, error) { return chaosCell(w, k, opt.Seed), nil }})
			out.Cells = append(out.Cells, ChaosCell{Function: w.Name, Fault: k})
		}
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return ChaosResult{Seed: opt.Seed}, err
	}
	for i, m := range ms {
		out.Cells[i].Outcome, out.Cells[i].Detail = ChaosOutcome(m.Outcome), m.Detail
	}
	return out, nil
}

// Failures counts FAIL cells.
func (r ChaosResult) Failures() int {
	n := 0
	for _, c := range r.Cells {
		if c.Outcome == ChaosFail {
			n++
		}
	}
	return n
}

// Table renders the matrix.
func (r ChaosResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Chaos sweep: fault matrix outcomes (seed %d)", r.Seed),
		"Function", "Fault", "Outcome", "Detail")
	for _, c := range r.Cells {
		t.AddRow(c.Function, c.Fault.String(), string(c.Outcome), c.Detail)
	}
	return t
}

// chaosJBServer builds a Jukebox-equipped server with w deployed and warmed
// far enough to have sealed replay metadata.
func chaosJBServer(w workload.Workload) (*serverless.Server, *serverless.Instance) {
	jb := core.DefaultConfig()
	s := serverless.New(serverless.Config{Jukebox: &jb})
	inst := s.Deploy(w)
	for i := 0; i < 3; i++ {
		s.FlushMicroarch()
		s.Invoke(inst)
	}
	return s, inst
}

// chaosCell runs one fault cell and returns its verdict in Outcome and
// Detail. Panics anywhere inside become FAIL verdicts, so a chaos sweep can
// never take the process down.
func chaosCell(w workload.Workload, k faults.Kind, seed uint64) (m measured) {
	defer func() {
		if rec := recover(); rec != nil {
			m.Outcome, m.Detail = string(ChaosFail), fmt.Sprintf("panic: %v", rec)
		}
	}()
	set := func(o ChaosOutcome, format string, args ...any) measured {
		m.Outcome, m.Detail = string(o), fmt.Sprintf(format, args...)
		return m
	}
	plan := faults.NewPlan(program.Mix(seed, uint64(k)), k)

	switch k {
	case faults.MetadataCorrupt, faults.MetadataTruncate, faults.MetadataZero:
		// The acceptance bound: a Jukebox fed garbage must not run
		// materially worse than no Jukebox at all.
		base := serverless.New(serverless.Config{})
		defer base.Release()
		baseCPI := base.RunLukewarm(base.Deploy(w), 4).CPI()
		s, inst := chaosJBServer(w)
		defer s.Release()
		plan.CorruptMetadata(inst.Jukebox)
		if plan.Injections[k] == 0 {
			return set(ChaosPass, "replay metadata empty; nothing to corrupt")
		}
		s.FlushMicroarch()
		r := s.Invoke(inst)
		if err := faults.Audit(r); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if inst.Jukebox.Stats.DegradedReplays == 0 {
			return set(ChaosFail, "corrupted metadata replayed undetected")
		}
		if ratio := r.CPI() / baseCPI; ratio > 1.02 {
			return set(ChaosFail, "degraded CPI %.4f is %+.1f%% vs no-Jukebox %.4f (bound +2%%)",
				r.CPI(), (ratio-1)*100, baseCPI)
		}
		return set(ChaosDegraded, "fell back to record-only; CPI %+.1f%% vs no-Jukebox baseline",
			(r.CPI()/baseCPI-1)*100)

	case faults.ReplayCompaction:
		s, inst := chaosJBServer(w)
		defer s.Release()
		plan.ArmReplayCompaction(inst.Jukebox, inst.AS)
		s.FlushMicroarch()
		r := s.Invoke(inst)
		inst.Jukebox.ReplayHook = nil
		if err := faults.Audit(r); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if plan.Injections[k] == 0 {
			return set(ChaosPass, "no replay in flight; nothing to migrate under")
		}
		if inst.Jukebox.Stats.DegradedReplays != 0 {
			return set(ChaosFail, "page migration misread as metadata corruption")
		}
		return set(ChaosPass, "replay survived full page migration mid-flight (%d pages moved)",
			inst.AS.Migrations)

	case faults.RecordEviction:
		s, inst := chaosJBServer(w)
		defer s.Release()
		plan.ArmMidRecordEviction(inst)
		s.FlushMicroarch()
		r := s.Invoke(inst)
		inst.Jukebox.RecordHook = nil
		if err := faults.Audit(r); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if plan.Injections[k] == 0 {
			return set(ChaosFail, "eviction hook never fired")
		}
		inst.Evict()
		for i := 0; i < 2; i++ {
			s.FlushMicroarch()
			s.Invoke(inst)
		}
		if inst.Jukebox.Stats.ReplayPrefetches == 0 {
			return set(ChaosFail, "replay did not re-seed after eviction")
		}
		return set(ChaosDegraded, "metadata dropped mid-record; replay re-seeded two invocations later")

	case faults.DRAMSpike:
		s := serverless.New(serverless.Config{})
		defer s.Release()
		inst := s.Deploy(w)
		clean := s.RunLukewarm(inst, 2)
		plan.DisturbDRAM(s.Core.Hier.DRAM)
		s.FlushMicroarch()
		r := s.Invoke(inst)
		if err := faults.Audit(r); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		return set(ChaosDegraded, "ran through interference: CPI %.3f vs %.3f clean",
			r.CPI(), clean.CPI())

	case faults.TraceCorrupt:
		var buf bytes.Buffer
		if _, err := trace.Capture(w.Program, 0, &buf); err != nil {
			return set(ChaosFail, "capture: %v", err)
		}
		data := plan.CorruptTrace(buf.Bytes())
		instrs, err := trace.Read(bytes.NewReader(data), 0)
		if err != nil {
			return set(ChaosDegraded, "decoder rejected corrupt stream with typed error")
		}
		for _, in := range instrs {
			if in.VAddr >= 1<<48 || in.MemAddr >= 1<<48 || in.Target >= 1<<48 {
				return set(ChaosFail, "corrupt stream decoded to non-canonical address")
			}
		}
		return set(ChaosPass, "corruption decoded as a different but canonical stream")

	case faults.TrafficBurst:
		s := serverless.New(serverless.Config{})
		defer s.Release()
		s.Deploy(w)
		cfg := serverless.DefaultTrafficConfig()
		cfg.MeanIATms = 30
		cfg.InvocationsPerInstance = 8
		cfg = plan.BurstTraffic(cfg)
		res, err := s.ServeTraffic(cfg)
		if err != nil {
			return set(ChaosFail, "serve: %v", err)
		}
		if err := faults.AuditTraffic(res); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if res.Served+res.Shed != cfg.InvocationsPerInstance {
			return set(ChaosFail, "served %d + shed %d != offered %d",
				res.Served, res.Shed, cfg.InvocationsPerInstance)
		}
		if res.Shed > 0 {
			return set(ChaosDegraded, "shed %d of %d under 100x burst, served the rest",
				res.Shed, cfg.InvocationsPerInstance)
		}
		return set(ChaosPass, "absorbed 100x burst without shedding")

	case faults.NodeCrash:
		cfg := chaosClusterCfg(w, plan)
		cfg.NodeCrashMTBFms = 100
		cfg.NodeDownMs = 40
		res, err := cluster.Run(cfg)
		if err != nil {
			return set(ChaosFail, "cluster: %v", err)
		}
		if err := cluster.Audit(&res); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if res.NodeCrashes == 0 {
			return set(ChaosPass, "no crash landed in the simulated span")
		}
		cold := 0
		for i := range res.PerNode {
			cold += res.PerNode[i].ColdStarts
		}
		if res.Served == res.Offered {
			return set(ChaosDegraded, "%d node crashes absorbed by rerouting and retries (%d cold restarts)",
				res.NodeCrashes, cold)
		}
		return set(ChaosDegraded, "%d node crashes: served %d of %d, %d cold restarts",
			res.NodeCrashes, res.Served, res.Offered, cold)

	case faults.InstanceCrash:
		cfg := chaosClusterCfg(w, plan)
		cfg.InstanceCrashProb = 0.2
		res, err := cluster.Run(cfg)
		if err != nil {
			return set(ChaosFail, "cluster: %v", err)
		}
		if err := cluster.Audit(&res); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if res.InstanceCrashes == 0 {
			return set(ChaosPass, "no crash struck in the simulated span")
		}
		if res.Served == res.Offered {
			return set(ChaosDegraded, "%d mid-invocation crashes absorbed by retries (work redone cold)",
				res.InstanceCrashes)
		}
		return set(ChaosDegraded, "%d mid-invocation crashes: served %d of %d",
			res.InstanceCrashes, res.Served, res.Offered)

	case faults.DispatchFlake:
		cfg := chaosClusterCfg(w, plan)
		cfg.DispatchFlakeProb = 0.3
		res, err := cluster.Run(cfg)
		if err != nil {
			return set(ChaosFail, "cluster: %v", err)
		}
		if err := cluster.Audit(&res); err != nil {
			return set(ChaosFail, "audit: %v", err)
		}
		if res.DispatchFlakes == 0 {
			return set(ChaosPass, "no flake struck in the simulated span")
		}
		if res.Served == res.Offered {
			return set(ChaosPass, "%d transient dispatch failures absorbed by retry/backoff",
				res.DispatchFlakes)
		}
		return set(ChaosDegraded, "%d dispatch flakes: served %d of %d",
			res.DispatchFlakes, res.Served, res.Offered)
	}
	return set(ChaosFail, "no cell runner for fault kind")
}

// chaosClusterCfg is the small two-node fleet the fleet-fault cells share:
// retries on, everything else at defaults, the plan under test armed.
func chaosClusterCfg(w workload.Workload, plan *faults.Plan) cluster.Config {
	tc := serverless.DefaultTrafficConfig()
	tc.MeanIATms = 50
	tc.InvocationsPerInstance = 6
	return cluster.Config{
		Nodes:          2,
		Workloads:      []workload.Workload{w},
		Traffic:        tc,
		RetryMax:       2,
		RetryBackoffMs: 2,
		Faults:         plan,
	}
}
