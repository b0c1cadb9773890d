package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/experiments"
	"lukewarm/internal/faults"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/runner"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// A workload is set up afresh for every pass (set-up time is its own
// metric) and then makes one pass: a fixed amount of simulated work, the
// same on every commit for a given seed.
type workloadDef struct {
	name, why string
	// seedless workloads simulate the same thing for every seed, so all
	// their passes must agree.
	seedless bool
	setup    func(seed uint64, smoke bool) (passer, error)
}

// passer is a set-up workload, ready for one pass.
type passer interface {
	// pass runs the measured work, traced when tr is non-nil.
	pass(tr *Tracer) passOut
	// layers derives the per-layer metrics and attribution tables of a
	// traced pass.
	layers(out passOut, tr *Tracer) (map[string]float64, []attribution, error)
}

// passOut is what one pass did.
type passOut struct {
	opMs     []float64 // host time of each op
	ops      int       // ops attempted
	failed   int       // ops whose output failed a check
	problems []string
	digest   uint64
	wallNs   int64 // filled by the caller: the pass's wall time
	host     *hostPass
	fleet    *cluster.Result
	sweep    runner.Stats
}

// pct is ns as a percentage of the pass's wall time.
func (o passOut) pct(ns int64) float64 { return 100 * float64(ns) / float64(o.wallNs) }

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workloadDef{
	{
		name: "warm-ref",
		why:  "back-to-back invocations on one core with no warm-up mechanism: the cache-hit path, walker and exec do the work; flush, Jukebox and REAP are bypassed",
		setup: func(seed uint64, smoke bool) (passer, error) {
			return newHostWorkload(hostSpec{perFunc: perFunc(smoke)}, seed, smoke)
		},
	},
	{
		name: "lukewarm-jbreap",
		why:  "the same invocations, each after a full flush, with Jukebox and REAP: the miss, fill and evict path, page walks, flush, record and replay",
		setup: func(seed uint64, smoke bool) (passer, error) {
			return newHostWorkload(hostSpec{perFunc: perFunc(smoke), jukebox: true, reap: true, flush: true}, seed, smoke)
		},
	},
	{
		name:  "fleet-tiny",
		why:   "a faulty 4-node fleet of tiny functions under bursty traffic: orchestration dominates (front end, event heap, sched, predict, per-dispatch fixed costs)",
		setup: newFleetWorkload,
	},
	{
		name:     "sweep",
		why:      "three experiments through a 2-worker runner: what users run, sweep wall time, the worker pool, the traffic engine with real functions, and PIF",
		seedless: true,
		setup:    newSweepWorkload,
	},
}

// singleHostFunctions are warm-ref's and lukewarm-jbreap's functions: one
// per language plus a second Go function, with footprints of 360-760 KB
// that fit the 1 MB L2.
func singleHostFunctions(smoke bool) []string {
	if smoke {
		return []string{"Auth-G", "ProdL-G"}
	}
	return []string{"Auth-G", "ProdL-G", "Pay-N", "Email-P"}
}

// perFunc sizes a single-host pass to 2.5-3 s on a 2-vCPU host: 52
// invocations, so the two seeds of a run give 104 distinct ops and the tail
// percentile has ten beyond it.
func perFunc(smoke bool) int {
	if smoke {
		return 2
	}
	return 13
}

// hostWorkload is a single-host workload: the pass is the host run itself.
type hostWorkload struct{ h *host }

func newHostWorkload(spec hostSpec, seed uint64, smoke bool) (passer, error) {
	ws, err := suite(singleHostFunctions(smoke))
	if err != nil {
		return nil, err
	}
	spec.functions = ws
	h, err := newHost(spec, seed)
	return hostWorkload{h}, err
}

func (w hostWorkload) pass(tr *Tracer) passOut {
	p := w.h.run(tr)
	return passOut{opMs: p.opMs, ops: len(p.opMs), failed: p.failed, problems: p.problems, digest: p.digest, host: &p}
}

func (w hostWorkload) layers(out passOut, _ *Tracer) (map[string]float64, []attribution, error) {
	m := map[string]float64{}
	a := hostLayers(m, w.h, *out.host, replayHost(w.h), "attribution of Invoke and flush spans ("+w.h.spec.describe()+")")
	m["attrib.residual_pct"] = a.residualPct()
	m["attrib.residual_ns_per_op"] = perOp(a.residualNs(), uint64(out.ops))
	return m, []attribution{a}, nil
}

func (s hostSpec) describe() string {
	d := fmt.Sprintf("%d functions x %d invocations", len(s.functions), s.perFunc)
	if s.flush {
		d += ", flushed"
	}
	if s.jukebox {
		d += ", Jukebox"
	}
	if s.reap {
		d += ", REAP"
	}
	return d
}

// hostLayers fills the single-host layer metrics from a host pass and its
// replayed costs, and returns the pass's attribution: replayed ns/op times
// the pass's own op counts, against the Invoke and flush spans.
func hostLayers(m map[string]float64, h *host, p hostPass, lt layerCosts, title string) attribution {
	c := p.counts
	flushNs := perOp(lt.flushNs, lt.flushes)
	if c.flushes > 0 {
		flushNs = perOp(p.flushNs, c.flushes) // the host's own flush spans
	}
	var jbFetches uint64
	if h.spec.jukebox {
		jbFetches = c.fetches
	}
	a := attribution{
		title:    title,
		totalNs:  p.invokeNs + p.flushNs,
		residual: "cpu.exec",
		ops:      c.instrs,
		rows: []layerRow{
			estimate("program.walk", perOp(lt.walkNs, lt.instrs), c.instrs),
			estimate("vm.translate", perOp(lt.translateNs, lt.translations), c.translations),
			estimate("mem.fetch", perOp(lt.fetchNs, lt.fetches), c.fetches),
			estimate("mem.data", perOp(lt.dataNs, lt.data), c.data),
			exact("mem.flush", p.flushNs, c.flushes),
			estimate("cpu.branch", perOp(lt.branchNs, lt.branches), c.branches),
			estimate("core.replay", perOp(lt.jbReplayNs, lt.jbReplays), c.jbReplays),
			estimate("core.record", perOp(lt.jbRecordNs, lt.jbFetches), jbFetches),
			estimate("reap.restore", perOp(lt.reapRestoreNs, lt.reapRestores), c.reapRestores),
			estimate("reap.record", perOp(lt.reapRecordNs, lt.reapAccesses), c.reapAccesses),
		},
	}
	m["program.walk_ns_per_instr"] = perOp(lt.walkNs, lt.instrs)
	m["program.reset_ns"] = perOp(lt.resetNs, lt.resets)
	m["program.instrs"] = float64(c.instrs)
	m["vm.translate_ns"] = perOp(lt.translateNs, lt.translations)
	m["vm.itlb_misses"] = float64(c.itlbMisses)
	m["vm.dtlb_misses"] = float64(c.dtlbMisses)
	m["vm.pages_mapped"] = float64(c.pagesMapped)
	m["mem.fetch_ns"] = perOp(lt.fetchNs, lt.fetches)
	m["mem.data_ns"] = perOp(lt.dataNs, lt.data)
	m["mem.flush_ns"] = flushNs
	m["mem.demand_accesses"] = float64(c.demand)
	m["mem.l1i_misses"] = float64(c.l1iMisses)
	m["mem.l1d_misses"] = float64(c.l1dMisses)
	m["mem.l2_misses"] = float64(c.l2Misses)
	m["mem.llc_misses"] = float64(c.llcMisses)
	m["mem.evictions"] = float64(c.evictions)
	m["mem.prefetch_useful_ratio"] = ratio(c.prefetchUsed, c.prefetchFills)
	m["cpu.branch_ns"] = perOp(lt.branchNs, lt.branches)
	m["cpu.mispredicts"] = float64(c.mispredicts)
	m["cpu.resteers"] = float64(c.resteers)
	m["cpu.exec_residual_ns_per_instr"] = perOp(a.residualNs(), c.instrs)
	m["core.replay_ns"] = perOp(lt.jbReplayNs, lt.jbReplays)
	m["core.record_ns_per_fetch"] = perOp(lt.jbRecordNs, lt.jbFetches)
	m["core.replay_prefetches"] = float64(c.jbPrefetches)
	m["core.recorded_entries"] = float64(c.jbRecorded)
	m["core.dropped_entries"] = float64(c.jbDropped)
	m["core.prefetch_useful_ratio"] = ratio(c.l2InstrUsed, c.l2InstrFills)
	m["reap.restore_ns"] = perOp(lt.reapRestoreNs, lt.reapRestores)
	m["reap.record_ns_per_access"] = perOp(lt.reapRecordNs, lt.reapAccesses)
	m["reap.restored_pages"] = float64(c.reapRestored)
	m["reap.used_ratio"] = ratio(c.reapUsed, c.reapRestored)
	m["serverless.invoke_ns_per_instr"] = perOp(p.invokeNs, c.instrs)
	m["serverless.invoke_ns"] = perOp(p.invokeNs, c.invocations)
	return a
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// calibrate runs a traced single-host pass of spec under its own span and
// replays it: the single-host layer metrics of workloads whose servers live
// out of the benchmark's reach (inside cluster.Run or the runner).
func calibrate(m map[string]float64, tr *Tracer, spec hostSpec, seed uint64) (attribution, error) {
	var a attribution
	err := tr.Scope("calibration", func() error {
		h, err := newHost(spec, seed)
		if err != nil {
			return err
		}
		calib := NewTracer() // keeps the calibration's Invoke totals apart
		p := h.run(calib)
		if p.failed > 0 {
			return fmt.Errorf("calibration: %s", strings.Join(p.problems, "; "))
		}
		a = hostLayers(m, h, p, replayHost(h), "calibration: attribution of Invoke spans ("+h.spec.describe()+")")
		return nil
	})
	return a, err
}

// Fleet-tiny sizing: 4 nodes x 16 functions x 150 requests per flow is
// 9600 requests, about 1.2 s per pass on a 2-vCPU host.
const (
	fleetNodes = 4
	tinyFuncs  = 16
)

func fleetPerFlow(smoke bool) int {
	if smoke {
		return 20
	}
	return 150
}

// tinyWorkloads builds the fleet's functions: 4 KB of code, about 1100
// instructions per invocation (one walk of the code plus its call-outs), so
// a dispatch costs tens of microseconds and orchestration dominates.
func tinyWorkloads() ([]workload.Workload, error) {
	var ws []workload.Workload
	for i := 0; i < tinyFuncs; i++ {
		p, err := program.NewErr(program.Config{
			Name: fmt.Sprintf("tiny-%02d", i), Seed: program.Mix(0x7141, uint64(i)),
			CodeKB: 4, DynamicInstrs: 600, InstrPerLine: 16,
			CoreFrac: 0.8, OptionalProb: 0.7, RareFrac: 0.05, RareProb: 0.05,
			LoadFrac: 0.25, StoreFrac: 0.1, CondFrac: 0.3, CondBias: 0.9, NoisyFrac: 0.02,
			IndirectFrac: 0.1, CallFrac: 0.3, SkipFrac: 0.04,
			DataKB: 16, HotDataKB: 4, HotDataFrac: 0.6, ColdDataFrac: 0.05, DepLoadFrac: 0.2, KernelFrac: 0.1,
		})
		if err != nil {
			return nil, err
		}
		ws = append(ws, workload.Workload{Name: p.Config().Name, App: "lukebench", Lang: workload.Go, Program: p})
	}
	return ws, nil
}

// fleetWorkload is one fleet-tiny pass, set up.
type fleetWorkload struct {
	ws      []workload.Workload
	seed    uint64
	perFlow int
}

func newFleetWorkload(seed uint64, smoke bool) (passer, error) {
	ws, err := tinyWorkloads()
	if err != nil {
		return nil, err
	}
	w := fleetWorkload{ws: ws, seed: seed, perFlow: fleetPerFlow(smoke)}
	// Warm-up: a small fleet through the same code, so the pass does not
	// pay first-use costs.
	warm := w
	warm.perFlow = 24
	if _, err := cluster.Run(warm.config(nil, nil)); err != nil {
		return nil, err
	}
	return w, nil
}

// config is the fleet: bursty arrivals with a 20 ms keep-alive and 1 ms cold
// starts, an EWMA pre-warmer, sticky fleet placement, and the whole failure
// model with retries, hedging, ejection and the brownout ladder. With a
// tracer every policy the fleet is handed is wrapped; onPlace runs at every
// fleet placement either way.
func (w fleetWorkload) config(tr *Tracer, onPlace func()) cluster.Config {
	jb := core.DefaultConfig()
	cfg := cluster.Config{
		Nodes:     fleetNodes,
		Workloads: w.ws,
		Node:      serverless.Config{CPU: cpu.SkylakeConfig(), Cores: 1, Jukebox: &jb},
		Traffic: serverless.TrafficConfig{
			MeanIATms: 4, Bursty: true, InvocationsPerInstance: w.perFlow,
			KeepAlive: sched.FixedTimeout(20), ColdStartMs: 1, Seed: w.seed,
			Predict: &predict.Config{Forecaster: predict.EWMA(0)},
		},
		FleetPlacer:       &tracedPlacer{inner: sched.StickyAffinity(4), tr: tr, span: spanFleetPlace, onCall: onPlace},
		DeadlineMs:        200,
		RetryMax:          2,
		RetryBackoffMs:    1,
		HedgeDelayMinMs:   0.25,
		EjectAfter:        3,
		EjectMs:           20,
		ShedLowAtMs:       1,
		RecordOnlyAtMs:    2,
		RejectAtMs:        4,
		LowPriority:       []string{w.ws[len(w.ws)-1].Name},
		Faults:            faults.NewPlan(w.seed, faults.NodeCrash, faults.InstanceCrash, faults.DispatchFlake),
		InstanceCrashProb: 0.01,
		DispatchFlakeProb: 0.02,
		NodeCrashMTBFms:   2000,
		NodeDownMs:        50,
	}
	if tr != nil {
		cfg.NodePlacer = func() sched.Placer {
			return &tracedPlacer{inner: sched.EarliestAvailable(), tr: tr, span: spanNodePlace}
		}
		cfg.Traffic.KeepAlive = &tracedKeepAlive{inner: cfg.Traffic.KeepAlive, tr: tr}
		cfg.Traffic.Predict.Forecaster = traceForecaster(cfg.Traffic.Predict.Forecaster, tr)
	}
	return cfg
}

// pass runs the fleet. Its ops are requests; each op's host time is the
// interval between consecutive fleet placements (one request attempt's
// front-end and node work).
func (w fleetWorkload) pass(tr *Tracer) passOut {
	stamps := make([]time.Time, 0, fleetNodes*tinyFuncs*w.perFlow*11/10)
	onPlace := func() {
		stamps = append(stamps, time.Now())
		tr.SetRequest(len(stamps) - 1)
	}
	var res cluster.Result
	err := tr.Scope(spanRun, func() error {
		var err error
		res, err = cluster.Run(w.config(tr, onPlace))
		return err
	})
	out := passOut{fleet: &res}
	if err == nil {
		err = auditFleet(&res)
	}
	out.ops = fleetNodes * tinyFuncs * w.perFlow
	if err != nil {
		out.failed = out.ops
		out.problems = []string{err.Error()}
		return out
	}
	for i := 1; i < len(stamps); i++ {
		out.opMs = append(out.opMs, float64(stamps[i].Sub(stamps[i-1]))/1e6)
	}
	d := newDigest()
	d.text(res.Summary())
	out.digest = d.sum()
	return out
}

// auditFleet runs every ledger check the fleet has: availability and retry
// conservation, per-node traffic, and the pre-warm ledger.
func auditFleet(r *cluster.Result) error {
	if err := cluster.Audit(r); err != nil {
		return err
	}
	for i := range r.PerNode {
		if err := faults.AuditPredict(r.PerNode[i].Prewarm, "ewma"); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

func (w fleetWorkload) layers(out passOut, tr *Tracer) (map[string]float64, []attribution, error) {
	m := map[string]float64{}
	r := out.fleet
	calib, err := calibrate(m, tr, hostSpec{functions: w.ws, jukebox: true, perFunc: 16}, w.seed)
	if err != nil {
		return nil, nil, err
	}
	var dispatches, invocations, coldStarts uint64
	for i := range r.PerNode {
		n := &r.PerNode[i]
		dispatches += uint64(n.Offered)
		invocations += uint64(n.Served + n.Failed)
		coldStarts += uint64(n.ColdStarts)
	}
	_, runNs := tr.Total(spanRun)
	fp, fpNs := tr.Total(spanFleetPlace)
	np, npNs := tr.Total(spanNodePlace)
	ka, kaNs := tr.Total(spanKeepAlive)
	pr, prNs := tr.Total(spanPredict)
	ob, obNs := tr.Total(spanObserve)
	a := attribution{
		title:    "attribution of cluster.Run",
		totalNs:  runNs,
		residual: "cluster.frontend",
		ops:      uint64(r.Offered),
		rows: []layerRow{
			estimate("serverless.invoke", m["serverless.invoke_ns"], invocations),
			exact("sched.place", fpNs+npNs, uint64(fp+np)),
			exact("sched.keepalive", kaNs, uint64(ka)),
			exact("predict.predict", prNs, uint64(pr)),
			exact("predict.observe", obNs, uint64(ob)),
		},
	}
	l := r.PrewarmLedger()
	m["serverless.node_dispatches"] = float64(dispatches)
	m["serverless.cold_starts"] = float64(coldStarts)
	m["sched.placements"] = float64(fp + np)
	m["sched.place_pct"] = out.pct(fpNs + npNs)
	m["sched.keepalive_pct"] = out.pct(kaNs)
	m["predict.forecast_pct"] = out.pct(prNs + obNs)
	m["predict.prewarms_scheduled"] = float64(l.Scheduled)
	m["predict.prewarm_used_ratio"] = ratio(uint64(l.Used), uint64(l.Scheduled))
	m["predict.wasted_replay_bytes"] = float64(l.WastedReplayBytes)
	m["cluster.offered"] = float64(r.Offered)
	m["cluster.failed"] = float64(r.Failed)
	m["cluster.shed"] = float64(r.Shed)
	m["cluster.retries"] = float64(r.Retries)
	m["cluster.hedges"] = float64(r.Hedges)
	m["cluster.hedge_useful_ratio"] = ratio(uint64(r.HedgeRescues), uint64(r.Hedges))
	m["attrib.residual_pct"] = a.residualPct()
	m["attrib.residual_ns_per_op"] = perOp(a.residualNs(), uint64(out.ops))
	return m, []attribution{a, calib}, nil
}

// sweepFunctions are the sweep's functions: three small Go functions, for
// 102 cells in about 8 s on a 2-vCPU host, so the tail percentile has ten
// cells beyond it.
func sweepFunctions(smoke bool) []string {
	if smoke {
		return []string{"Auth-G"}
	}
	return []string{"Auth-G", "ProdL-G", "Fib-G"}
}

// sweepJobs is the sweep engine's worker count: two, or fewer on a host with
// fewer CPUs.
func sweepJobs() int { return min(2, runtime.NumCPU()) }

// sweepWorkload is one sweep pass, set up: a fresh engine whose cells
// report their wall time.
type sweepWorkload struct {
	engine *runner.Engine
	cells  *cellTimes
	funcs  []string
	seed   uint64
}

func newSweepWorkload(seed uint64, smoke bool) (passer, error) {
	cells := &cellTimes{}
	e, err := runner.New(runner.Config{Jobs: sweepJobs(), Progress: cells})
	if err != nil {
		return nil, err
	}
	w := sweepWorkload{engine: e, cells: cells, funcs: sweepFunctions(smoke), seed: seed}
	// Warm-up: one lukewarm baseline cell per function, through the
	// executor the sweep's cells use, outside the engine and its cache.
	for _, f := range w.funcs {
		c := runner.Cell{Workload: f, CPU: cpu.SkylakeConfig(), Mode: runner.Lukewarm, Warmup: 1, Measure: 1}
		if _, err := runner.Execute(c); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// pass runs the scheduling, cold-start and fig10/fig11 experiments. Its ops
// are the engine's cells; each op's host time is the runner's own per-cell
// wall time.
func (w sweepWorkload) pass(tr *Tracer) passOut {
	opt := experiments.Options{Functions: w.funcs, Warmup: 1, Measure: 1, Audit: true, Engine: w.engine}
	d := newDigest()
	steps := []struct {
		span string
		run  func() (any, error)
	}{
		{spanSched, func() (any, error) { return experiments.Sched(opt) }},
		{spanColdstart, func() (any, error) { return experiments.Coldstart(opt) }},
		{spanPerf, func() (any, error) { return experiments.Performance(opt, cpu.SkylakeConfig(), core.DefaultConfig()) }},
	}
	var out passOut
	for i, s := range steps {
		tr.SetRequest(i)
		err := tr.Scope(s.span, func() error {
			r, err := s.run()
			d.text(r)
			return err
		})
		if err != nil {
			out.problems = append(out.problems, err.Error())
		}
	}
	out.sweep = w.engine.Stats()
	out.ops = int(out.sweep.Cells)
	if len(out.problems) > 0 {
		out.failed = out.ops
	}
	out.opMs = w.cells.byLabel()
	out.digest = d.sum()
	return out
}

func (w sweepWorkload) layers(out passOut, tr *Tracer) (map[string]float64, []attribution, error) {
	m := map[string]float64{}
	ws, err := suite(w.funcs)
	if err != nil {
		return nil, nil, err
	}
	calib, err := calibrate(m, tr, hostSpec{functions: ws, flush: true, perFunc: 2}, w.seed)
	if err != nil {
		return nil, nil, err
	}
	var rows []layerRow
	for _, s := range []struct{ span, metric string }{
		{spanSched, "experiments.sched_pct"},
		{spanColdstart, "experiments.coldstart_pct"},
		{spanPerf, "experiments.perf_pct"},
	} {
		n, ns := tr.Total(s.span)
		rows = append(rows, exact(s.span, ns, uint64(n)))
		m[s.metric] = out.pct(ns)
	}
	a := attribution{title: "attribution of the sweep pass", totalNs: out.wallNs, rows: rows,
		residual: "benchmark loop", ops: out.sweep.Cells}
	m["runner.cells"] = float64(out.sweep.Cells)
	m["runner.cache_hits"] = float64(out.sweep.CacheHits)
	m["runner.parallel_efficiency"] = float64(out.sweep.CellWall) / (float64(out.wallNs) * float64(sweepJobs()))
	m["attrib.residual_pct"] = a.residualPct()
	m["attrib.residual_ns_per_op"] = perOp(a.residualNs(), uint64(out.ops))
	return m, []attribution{a, calib}, nil
}

// cellTimes collects the engine's per-cell wall times from its progress
// lines ("[3/60] Auth-G/jukebox 1.8s", " (cached)" appended on hits);
// cached cells are not timed work and are left out.
type cellTimes struct{ cells []cellTime }

type cellTime struct {
	label string
	ms    float64
}

func (c *cellTimes) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimSpace(string(p)), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasSuffix(line, "(cached)") {
			continue
		}
		if d, err := time.ParseDuration(f[len(f)-1]); err == nil {
			c.cells = append(c.cells, cellTime{strings.Join(f[1:len(f)-1], " "), float64(d) / 1e6})
		}
	}
	return len(p), nil
}

// byLabel returns the cell times in label order: cells finish in a different
// order on every pass, and a run compares each cell with its own repeats.
func (c *cellTimes) byLabel() []float64 {
	cells := slices.Clone(c.cells)
	slices.SortStableFunc(cells, func(a, b cellTime) int { return strings.Compare(a.label, b.label) })
	ms := make([]float64, len(cells))
	for i, x := range cells {
		ms[i] = x.ms
	}
	return ms
}
