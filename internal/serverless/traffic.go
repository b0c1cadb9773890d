package serverless

import (
	"fmt"
	"math"
	"strings"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/mem"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/sched"
	"lukewarm/internal/stats"
)

// TrafficConfig drives a system-level simulation: invocations arrive for
// each deployed instance as an independent arrival process and are served
// in arrival order on the core a placement policy picks. Interleaving here
// is *natural* — running other instances thrashes the shared
// microarchitectural state, no explicit flush — so lukewarm behavior emerges
// the way it does in production (Sec. 2.2).
type TrafficConfig struct {
	// MeanIATms is each instance's mean inter-arrival time in milliseconds.
	// The Azure study the paper builds on (Shahrad et al., ATC'20) puts the
	// vast majority of warm invocations at 1 s to a few minutes.
	MeanIATms float64
	// Poisson selects exponential inter-arrival times; false gives fixed
	// spacing (instances are phase-shifted either way).
	Poisson bool
	// HeavyTail layers burstiness over the Poisson process, approximating
	// the Azure production traces (Shahrad et al., ATC'20): half the gaps
	// are short intra-burst arrivals, half are long lulls, preserving the
	// configured mean. Implies Poisson.
	HeavyTail bool
	// Diurnal selects near-periodic arrivals modulated by a fleet-wide
	// sinusoidal rate cycle (see sched.Diurnal) — individually predictable
	// gaps whose rate drifts over the period, the common pattern in the
	// Azure traces. Takes precedence over Bursty, HeavyTail and Poisson.
	Diurnal bool
	// Bursty selects the adversarial mixture shape (sched.Bursty): tight
	// intra-burst gaps most of the time, long lulls otherwise, mean
	// preserved — the worst case for gap forecasters, whose modal
	// prediction fires into the occasional lull and is wasted. Takes
	// precedence over HeavyTail and Poisson; Diurnal takes precedence
	// over it.
	Bursty bool
	// InvocationsPerInstance bounds the run.
	InvocationsPerInstance int
	// ColdStartMs is the instance boot cost charged to a cold start
	// (paper Sec. 2.1: "hundreds of milliseconds in today's clouds").
	ColdStartMs float64
	// AmbientThrash treats the deployed instances as a sample of a much
	// larger co-resident population: idle gaps apply the server's
	// DefaultThrashBytesPerMs partial-eviction model (as in the Fig. 1
	// sweep) in addition to the natural interleaving of the deployed
	// instances.
	AmbientThrash bool
	// MaxQueue bounds the number of invocations waiting past their arrival
	// time at dispatch; when the backlog reaches the bound the dispatcher
	// sheds the invocation instead of serving it (0 = unbounded). This is
	// the overload valve: under saturating bursts the arrival heap stays
	// bounded and throughput degrades smoothly.
	MaxQueue int
	// ShedAfterMs sheds any invocation that has already waited longer than
	// this when it reaches the dispatcher (0 = no deadline). Models a
	// request timeout at the front end.
	ShedAfterMs float64
	// Placer picks the core that serves each invocation. Nil selects
	// sched.EarliestAvailable(), the historical dispatch rule. Stateful
	// placers (RoundRobin, StickyAffinity) must not be shared between
	// concurrent ServeTraffic runs.
	Placer sched.Placer
	// KeepAlive decides instance eviction and pre-warming; an evicted
	// instance's next invocation is a cold start (paper Sec. 2.1). Nil
	// selects sched.NoEvict(), keeping instances forever: the providers'
	// 5-60 min window is far above typical IATs.
	// Learning policies (HybridHistogram) must not be shared between
	// concurrent ServeTraffic runs.
	KeepAlive sched.KeepAlive
	// SyncReplay charges dispatch-time warm-up replay to the invocation's
	// critical path: the instance's restore (REAP's userspace bulk read,
	// Jukebox's replay stream) runs to completion before execution begins,
	// and its duration counts toward the invocation's service time, CPI and
	// latency. This is the production semantics of snapshot restore — the
	// function cannot run ahead of its own working set — and it is exactly
	// the cost a timely pre-warm removes: a pre-warmed instance already ran
	// its replay off the critical path, so its dispatch pays only the
	// unfinished tail (if the replay fired late). Off by default, which
	// preserves the historical overlap model where replay races execution.
	SyncReplay bool
	// Predict, when non-nil, arms predictive pre-warming: a forecaster
	// predicts each resident instance's next arrival and its warm-up
	// mechanisms (Jukebox replay, REAP restore) are pre-run LeadMs before
	// it, so on-time arrivals skip the replay phase and start
	// microarchitecturally warm. Mispredictions are charged to the
	// TrafficResult.Prewarm ledger. The forecaster (and the optional
	// shared Budget) is stateful; a cluster passes the same *predict.Config
	// to every node's sim deliberately, single-node runs must not share it
	// between concurrent simulations.
	Predict *predict.Config
	// Seed determinizes arrivals.
	Seed uint64
}

// maxTrafficMs caps MeanIATms and ColdStartMs, which the engine converts to
// cycles: past it the uint64 cycle clock could overflow, and Go leaves an
// overflowing float-to-integer conversion implementation-defined, so results
// would differ by GOARCH. About 2.8 h, far above any modeled IAT.
const maxTrafficMs = 1e7

// Validate reports whether the traffic configuration is serveable. Errors
// wrap cfgerr.ErrBadConfig.
func (c TrafficConfig) Validate() error {
	switch {
	case !(c.MeanIATms > 0 && c.MeanIATms <= maxTrafficMs):
		return cfgerr.New("traffic: MeanIATms must be in (0, %g], got %g", float64(maxTrafficMs), c.MeanIATms)
	case c.InvocationsPerInstance <= 0:
		return cfgerr.New("traffic: InvocationsPerInstance must be positive, got %d", c.InvocationsPerInstance)
	case !(c.ColdStartMs >= 0 && c.ColdStartMs <= maxTrafficMs):
		return cfgerr.New("traffic: ColdStartMs must be in [0, %g], got %g", float64(maxTrafficMs), c.ColdStartMs)
	case c.MaxQueue < 0:
		return cfgerr.New("traffic: negative MaxQueue %d", c.MaxQueue)
	case !(c.ShedAfterMs >= 0) || math.IsInf(c.ShedAfterMs, 1):
		return cfgerr.New("traffic: ShedAfterMs must be finite and non-negative, got %g", c.ShedAfterMs)
	}
	if err := sched.ValidateKeepAlive(c.KeepAlive); err != nil {
		return err
	}
	return c.Predict.Validate()
}

// shape resolves the configured arrival-process shape.
func (c TrafficConfig) shape() sched.Shape {
	s := sched.Shape{Kind: sched.Fixed, MeanIATms: c.MeanIATms}
	switch {
	case c.Diurnal:
		s.Kind = sched.Diurnal
	case c.Bursty:
		s.Kind = sched.Bursty
	case c.HeavyTail:
		s.Kind = sched.HeavyTail
	case c.Poisson:
		s.Kind = sched.Poisson
	}
	return s
}

// Shape exposes the resolved arrival-process shape (the cluster front end
// drives the same generator at fleet scope).
func (c TrafficConfig) Shape() sched.Shape { return c.shape() }

// placer resolves the placement policy.
func (c TrafficConfig) placer() sched.Placer {
	if c.Placer != nil {
		return c.Placer
	}
	return sched.EarliestAvailable()
}

// keepAlive resolves the eviction policy.
func (c TrafficConfig) keepAlive() sched.KeepAlive {
	if c.KeepAlive == nil {
		return sched.NoEvict()
	}
	return c.KeepAlive
}

// DefaultTrafficConfig returns a 1 s Poisson workload, the representative
// point of the paper's IAT discussion.
func DefaultTrafficConfig() TrafficConfig {
	return TrafficConfig{
		MeanIATms:              1000,
		Poisson:                true,
		InvocationsPerInstance: 6,
		ColdStartMs:            250,
		Seed:                   1,
	}
}

// FuncTraffic is one function's slice of a traffic run, in deployment
// order: the per-function breakdown of the fleet-wide counters.
type FuncTraffic struct {
	// Name is the function name.
	Name string
	// Served, ColdStarts and Shed are this function's share of the
	// fleet-wide counters.
	Served, ColdStarts, Shed int
	// Failed counts dispatches that ran but whose response was lost to an
	// injected instance crash (fleet simulations); always 0 in plain
	// ServeTraffic runs.
	Failed int
	// CPISum accumulates per-invocation CPI; CPISum/Served is the
	// function's mean CPI over the run.
	CPISum float64
	// PrewarmsUsed and PrewarmsWasted are this function's share of the
	// predictive pre-warm ledger (always 0 without TrafficConfig.Predict);
	// wasted includes end-of-run expiries.
	PrewarmsUsed, PrewarmsWasted int
	// PredJudged counts this function's idle gaps judged with a prediction
	// in hand; PredAbsErrMsSum accumulates |predicted - observed| over them.
	PredJudged      int
	PredAbsErrMsSum float64
}

// MeanCPI reports the function's mean per-invocation CPI.
func (f FuncTraffic) MeanCPI() float64 {
	if f.Served == 0 {
		return 0
	}
	return f.CPISum / float64(f.Served)
}

// MeanAbsPredErrMs reports the function's mean absolute prediction error
// over judged gaps.
func (f FuncTraffic) MeanAbsPredErrMs() float64 {
	if f.PredJudged == 0 {
		return 0
	}
	return f.PredAbsErrMsSum / float64(f.PredJudged)
}

// TrafficResult summarizes a traffic run. Every field is an exported value
// that round-trips through gob, so experiment runners cache the result
// itself inside runner.Measurement.
type TrafficResult struct {
	// Offered counts every invocation that reached the dispatcher:
	// Offered == Served + Shed + Failed (the conservation invariant
	// faults.AuditTraffic enforces).
	Offered int
	// Served counts completed invocations.
	Served int
	// Shed counts invocations dropped by the overload valve (MaxQueue bound
	// or ShedAfterMs deadline) instead of being served.
	Shed int
	// Failed counts invocations that executed but whose response was lost
	// to an injected instance crash. Plain ServeTraffic runs never fail
	// invocations; the cluster front end injects them via TrafficSim.
	Failed int
	// ColdStarts counts invocations that found their instance evicted.
	ColdStarts int
	// PrewarmHits counts invocations whose instance had been evicted but
	// was restored by the keep-alive policy's pre-warm before they arrived
	// (no cold start charged).
	PrewarmHits int
	// PlacementMigrations counts invocations served on a different core
	// than their function's previous one.
	PlacementMigrations int
	// JukeboxRebinds counts invocations that had to program their Jukebox
	// base/limit registers on a core that did not already hold them (first
	// invocations and migrations). Zero when Jukebox is disabled.
	JukeboxRebinds int
	// ResidentMs sums, across all idle gaps, the time instances stayed
	// memory-resident — the instance-memory budget the keep-alive policy
	// spent. Busy (executing) time is not included.
	ResidentMs float64
	// IdleMs sums every judged idle gap (every dispatch of an instance
	// with a previous completion), and the Tier fields partition it by the
	// readiness ladder: TierColdMs the evicted remainder of gaps that
	// cold-started, TierPrewarmedMs the tail of gaps spent with a used
	// pre-warm's replay already installed, TierResidentMs everything else
	// (memory-resident, microarchitecturally decaying). The partition
	// invariant TierColdMs + TierResidentMs + TierPrewarmedMs == IdleMs is
	// enforced by faults.AuditTraffic.
	IdleMs          float64
	TierColdMs      float64
	TierResidentMs  float64
	TierPrewarmedMs float64
	// Prewarm is the predictive pre-warm conservation ledger (zero without
	// TrafficConfig.Predict); faults.AuditPredict checks its invariants.
	Prewarm predict.Ledger
	// SyncReplays counts dispatches that paid a synchronous dispatch-time
	// replay (TrafficConfig.SyncReplay), and SyncReplayMs is the total
	// critical-path time they spent in it. Both are 0 without SyncReplay.
	SyncReplays  int
	SyncReplayMs float64
	// PerFunction breaks Served/ColdStarts/Shed/Failed down by function, in
	// deployment order.
	PerFunction []FuncTraffic
	// CPI summarizes per-invocation CPI across all instances.
	CPI stats.Summary
	// ServiceCycles summarizes per-invocation service time (execution
	// only), in cycles.
	ServiceCycles stats.Summary
	// LatencyCycles summarizes arrival-to-completion latency (queueing +
	// cold start + execution), in cycles.
	LatencyCycles stats.Summary
	// BusyFraction is the core's utilization over the simulated span.
	BusyFraction float64
	// SimulatedMs is the simulated wall-clock span.
	SimulatedMs float64
	// P99LatencyCycles is the 99th-percentile latency.
	P99LatencyCycles float64
}

// ColdStartRate reports the fraction of served invocations that cold-started.
func (r *TrafficResult) ColdStartRate() float64 {
	if r.Served == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Served)
}

// ShedRate reports the fraction of offered invocations that were shed.
func (r *TrafficResult) ShedRate() float64 {
	if offered := r.Served + r.Shed; offered > 0 {
		return float64(r.Shed) / float64(offered)
	}
	return 0
}

// JukeboxCoverage reports the fraction of served invocations that found
// their Jukebox metadata registers already programmed on the chosen core
// (no Bind churn). It is 0 when Jukebox is disabled.
func (r *TrafficResult) JukeboxCoverage() float64 {
	if r.Served == 0 || r.JukeboxRebinds == 0 {
		return 0
	}
	return 1 - float64(r.JukeboxRebinds)/float64(r.Served)
}

// ResidentMsPerServed reports the mean instance-memory spend per served
// invocation — the budget axis keep-alive policies are compared on.
func (r *TrafficResult) ResidentMsPerServed() float64 {
	if r.Served == 0 {
		return 0
	}
	return r.ResidentMs / float64(r.Served)
}

// instSched is the per-instance bookkeeping the scheduling policies read.
type instSched struct {
	fn         *FuncTraffic
	lastDone   mem.Cycle
	hasDone    bool
	lastCore   int // core of the last completion, -1 before the first
	servedMark int // coreServed[lastCore] at that completion
	// forceCold marks an instance whose warm state was destroyed outside
	// the keep-alive policy's control (node or instance crash): its next
	// dispatch cold-starts unconditionally. Never set by ServeTraffic.
	forceCold bool
}

// WarmthClass classifies one served invocation's microarchitectural state
// at dispatch — the cold/lukewarm/warm split the fleet results report.
type WarmthClass uint8

// The three warmth classes of the paper's framing.
const (
	// ClassCold: the instance was evicted (or never ran) and paid the boot
	// charge — or would have, for a first invocation.
	ClassCold WarmthClass = iota
	// ClassLukewarm: the instance was memory-resident but other invocations
	// ran on its core since its last completion (state partially thrashed),
	// or it came back on a different core.
	ClassLukewarm
	// ClassWarm: back-to-back on the same core with nothing in between —
	// the fully warm reference regime.
	ClassWarm
)

// String names the class.
func (c WarmthClass) String() string {
	switch c {
	case ClassCold:
		return "cold"
	case ClassWarm:
		return "warm"
	default:
		return "lukewarm"
	}
}

// DispatchOutcome reports what one dispatched arrival did to the node.
type DispatchOutcome struct {
	// Shed reports the arrival was dropped by an overload valve; nothing
	// else in the outcome is meaningful.
	Shed bool
	// Failed reports the invocation executed (cycles were spent, state was
	// thrashed) but its response was lost: the dispatch was Doomed.
	Failed bool
	// Class is the invocation's warmth class at dispatch.
	Class WarmthClass
	// ColdStart reports the keep-alive (or a crash) charged a cold start.
	ColdStart bool
	// Prewarmed reports the keep-alive's pre-warm absorbed the eviction.
	Prewarmed bool
	// Core is the core index that served the invocation.
	Core int
	// Done is the chosen core's clock after completion.
	Done mem.Cycle
	// LatencyCycles is arrival-to-completion time, ServiceCycles execution
	// time only, CPI the invocation's cycles per instruction.
	LatencyCycles, ServiceCycles, CPI float64
}

// TrafficSim is the dispatch engine underneath ServeTraffic, factored out so
// a fleet front end (internal/cluster) can drive one node's instances
// arrival-by-arrival while owning the arrival processes, retries and fault
// injection itself. The sim owns everything node-local: core placement,
// overload valves, keep-alive judgments, migration/rebind accounting and the
// per-node TrafficResult. It draws no randomness of its own — determinism is
// exactly the caller's arrival order.
type TrafficSim struct {
	srv         *Server
	cfg         TrafficConfig
	placer      sched.Placer
	keepAlive   sched.KeepAlive
	cyclesPerMs float64

	res        TrafficResult
	state      map[*Instance]*instSched
	perFn      []*FuncTraffic
	insts      []*Instance // registration order, for the Finish expiry sweep
	coreServed []int
	views      []sched.CoreView
	start      mem.Cycle
	busy       mem.Cycle
	prewarmer  *predict.Prewarmer
	latencies  []float64 // served invocations' latencies, for the P99
}

// NewTrafficSim builds a dispatch engine for srv under cfg. The server's
// already-deployed instances are registered in deployment order; instances
// deployed later must be registered explicitly.
func (s *Server) NewTrafficSim(cfg TrafficConfig) (*TrafficSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ts := &TrafficSim{
		srv:         s,
		cfg:         cfg,
		placer:      cfg.placer(),
		keepAlive:   cfg.keepAlive(),
		cyclesPerMs: s.cfg.CPU.FreqGHz * 1e6,
		state:       map[*Instance]*instSched{},
		coreServed:  make([]int, len(s.Cores)),
		views:       make([]sched.CoreView, len(s.Cores)),
		start:       s.Core.Now(),
	}
	if cfg.Predict != nil {
		ts.prewarmer = predict.NewPrewarmer(cfg.Predict)
	}
	for _, inst := range s.instances {
		ts.Register(inst)
	}
	return ts, nil
}

// Register adds per-instance bookkeeping (and a PerFunction row) for inst.
func (ts *TrafficSim) Register(inst *Instance) {
	if ts.state[inst] != nil {
		return
	}
	fn := &FuncTraffic{Name: inst.Workload.Name}
	ts.perFn = append(ts.perFn, fn)
	ts.insts = append(ts.insts, inst)
	ts.state[inst] = &instSched{fn: fn, lastCore: -1}
}

// CyclesPerMs reports the clock conversion factor of the underlying server.
func (ts *TrafficSim) CyclesPerMs() float64 { return ts.cyclesPerMs }

// EarliestFreeAt reports when the node's least-loaded core drains its
// backlog — the fleet placer's per-node FreeAt signal.
func (ts *TrafficSim) EarliestFreeAt() mem.Cycle {
	min := ts.srv.Cores[0].Now()
	for _, c := range ts.srv.Cores[1:] {
		if n := c.Now(); n < min {
			min = n
		}
	}
	return min
}

// MarkCrashed models the instance dying with its host state: the address
// space and any Jukebox metadata are reclaimed (Instance.Evict), the REAP
// manifest is lost with the host's snapshot store, and the next dispatch
// cold-starts unconditionally, bypassing the keep-alive policy.
func (ts *TrafficSim) MarkCrashed(inst *Instance) {
	st := ts.state[inst]
	if st == nil {
		return
	}
	inst.Evict()
	inst.DropManifest()
	st.forceCold = true
	st.hasDone = false
}

// prewarmArmed reports whether inst has sealed warm-up state the selected
// mechanism could replay ahead of an arrival.
func (ts *TrafficSim) prewarmArmed(inst *Instance, mech predict.Mech) bool {
	if inst.Reap != nil && mech != predict.MechJukebox && inst.Reap.RestoreFootprintBytes() > 0 {
		return true
	}
	if inst.Jukebox != nil && mech != predict.MechReap &&
		inst.Jukebox.ReplayEnabled() && inst.Jukebox.ReplayFootprintBytes() > 0 {
		return true
	}
	return false
}

// prewarmCharge estimates what a wasted pre-warm of inst costs: the full
// replay prefetch volume of the selected mechanism(s) and the replay-engine
// occupancy at one line per cycle. Wasted and partial pre-warms are never
// physically executed (the warmth they installed is gone by dispatch), so
// the ledger charges this static estimate instead.
func (ts *TrafficSim) prewarmCharge(inst *Instance, mech predict.Mech) predict.Charge {
	var bytes uint64
	if inst.Reap != nil && mech != predict.MechJukebox {
		bytes += inst.Reap.RestoreFootprintBytes()
	}
	if inst.Jukebox != nil && mech != predict.MechReap && inst.Jukebox.ReplayEnabled() {
		bytes += inst.Jukebox.ReplayFootprintBytes()
	}
	return predict.Charge{
		Bytes:  bytes,
		BusyMs: float64(bytes/mem.LineSize) / ts.cyclesPerMs,
	}
}

// Dispatch serves one arrival of inst at time at: core placement, overload
// valves, keep-alive judgment, cold-start charge, migration accounting and
// the invocation itself, exactly as ServeTraffic's historical loop body.
//
// due, consulted only when an overload valve is armed, must report how many
// other pending arrivals are due at or before the chosen core's clock (this
// arrival is counted by the sim itself).
//
// doomed runs the invocation but loses the response: the work is done and
// the state thrashed, but the arrival counts as Failed, not Served, and the
// instance crashes with it (MarkCrashed semantics). ServeTraffic never dooms.
func (ts *TrafficSim) Dispatch(inst *Instance, at mem.Cycle, doomed bool, due func(coreNow mem.Cycle) int) DispatchOutcome {
	st := ts.state[inst]
	cfg := ts.cfg
	s := ts.srv
	arrivalMs := float64(at) / ts.cyclesPerMs
	ts.res.Offered++
	// Snapshot per-core state and let the placement policy dispatch.
	for i := range s.Cores {
		ts.views[i] = sched.CoreView{
			FreeAtMs: float64(s.Cores[i].Now()) / ts.cyclesPerMs,
			Last:     st.lastCore == i,
		}
		if ts.views[i].Last {
			ts.views[i].ForeignSince = ts.coreServed[i] - st.servedMark
			ts.views[i].Bound = inst.Jukebox != nil
		}
	}
	idx := ts.placer.Place(sched.Request{
		Func:       inst.Workload.Name,
		ArrivalMs:  arrivalMs,
		HasJukebox: inst.Jukebox != nil,
	}, ts.views)
	core := s.Cores[idx]
	// Overload valve: shed before touching any simulated state, so a
	// shed decision never perturbs the microarchitecture. An invocation
	// is shed when it already blew its deadline waiting for a core, or
	// when the due backlog (this arrival plus queued arrivals whose time
	// has passed) exceeds the configured bound. The client's later
	// requests still arrive, so the process drains deterministically.
	if cfg.ShedAfterMs > 0 || cfg.MaxQueue > 0 {
		waitedMs := 0.0
		if core.Now() > at {
			waitedMs = float64(core.Now()-at) / ts.cyclesPerMs
		}
		d := 1
		if due != nil {
			d += due(core.Now())
		}
		if (cfg.ShedAfterMs > 0 && waitedMs > cfg.ShedAfterMs) ||
			(cfg.MaxQueue > 0 && d > cfg.MaxQueue) {
			ts.res.Shed++
			st.fn.Shed++
			return DispatchOutcome{Shed: true, Core: idx}
		}
	}
	// Predictive pre-warm: judge the gap's pre-warm against the observed
	// arrival. The decision was conceptually made at the last completion
	// (predict the gap, schedule the replay LeadMs early); the sim owns no
	// event loop, so it is reconstructed lazily here, before the clock
	// advances across the gap. A used pre-warm physically replays mid-gap
	// below, and the remaining gap's ambient interleaving then decays the
	// freshly installed warmth — firing too early is a real cost.
	var pre predict.Outcome
	var preMech predict.Mech
	if ts.prewarmer != nil && st.hasDone && !st.forceCold {
		idleMs := 0.0
		if at > st.lastDone {
			idleMs = float64(at-st.lastDone) / ts.cyclesPerMs
		}
		preMech = ts.prewarmer.Config().Mech(inst.Workload.Name)
		pre = ts.prewarmer.Judge(inst.Workload.Name, idleMs, arrivalMs,
			ts.prewarmArmed(inst, preMech), ts.prewarmCharge(inst, preMech))
		if pre.HavePred {
			st.fn.PredJudged++
			st.fn.PredAbsErrMsSum += pre.AbsErrMs
		}
		if pre.Verdict == predict.VerdictWasted {
			st.fn.PrewarmsWasted++
		}
	}
	advance := func(to mem.Cycle) {
		if to <= core.Now() {
			return
		}
		gap := to - core.Now()
		if cfg.AmbientThrash {
			s.AdvanceIATOn(idx, float64(gap)/ts.cyclesPerMs)
		} else {
			core.AdvanceCycles(gap)
		}
	}
	prewarmRan := false
	if pre.Verdict == predict.VerdictUsed {
		// Fire the replay at its scheduled point in the gap, then let the
		// rest of the gap act on the freshly installed state. Here and at
		// every ms-to-cycle conversion below, float64(...) rounds the
		// product, so no architecture fuses it into the unsigned conversion
		// (make fmagate).
		advance(st.lastDone + mem.Cycle(float64(pre.FireMs*ts.cyclesPerMs)))
		po := s.PrewarmOn(idx, inst, preMech)
		ts.prewarmer.CommitUsed(po.Ran, po.Bytes, float64(po.BusyCycles)/ts.cyclesPerMs)
		if po.Ran {
			prewarmRan = true
			st.fn.PrewarmsUsed++
		}
	}
	advance(at)
	var out DispatchOutcome
	out.Core = idx
	// Warmth class: fully warm only when nothing ran on the instance's last
	// core since its last completion; a cold start (from keep-alive or a
	// crash) is cold; everything else — including first invocations on a
	// thrashed core and pre-warm restorations — is lukewarm. First-ever
	// invocations on a fresh server are cold microarchitecturally even
	// though no boot charge applies.
	switch {
	case st.forceCold || !st.hasDone:
		out.Class = ClassCold
	case st.lastCore == idx && ts.coreServed[idx] == st.servedMark:
		out.Class = ClassWarm
	default:
		out.Class = ClassLukewarm
	}
	// Keep-alive: judge the idle gap since the instance's last
	// completion. Evicted-and-not-prewarmed instances cold-start. A
	// crash-marked instance cold-starts unconditionally: its state is
	// already gone, no policy can have kept it.
	if st.forceCold {
		st.forceCold = false
		out.ColdStart = true
		ts.res.ColdStarts++
		st.fn.ColdStarts++
		core.AdvanceCycles(mem.Cycle(float64(cfg.ColdStartMs * ts.cyclesPerMs)))
	} else if st.hasDone {
		idleMs := 0.0
		if at > st.lastDone {
			idleMs = float64(at-st.lastDone) / ts.cyclesPerMs
		}
		d := ts.keepAlive.Decide(inst.Workload.Name, idleMs)
		ts.res.ResidentMs += d.ResidentMs
		// Readiness-tier partition of the gap: the evicted remainder is
		// cold, the tail past a used pre-warm's firing point is pre-warmed,
		// the rest plain resident.
		ts.res.IdleMs += idleMs
		coldMs := idleMs - d.ResidentMs
		if coldMs < 0 {
			coldMs = 0
		}
		resMs := idleMs - coldMs
		if prewarmRan {
			if pw := idleMs - pre.FireMs; pw > 0 {
				if pw > resMs {
					pw = resMs
				}
				resMs -= pw
				ts.res.TierPrewarmedMs += pw
			}
		}
		ts.res.TierColdMs += coldMs
		ts.res.TierResidentMs += resMs
		if d.Prewarmed {
			ts.res.PrewarmHits++
			out.Prewarmed = true
		}
		if d.ColdStart() {
			out.Class = ClassCold
			out.ColdStart = true
			ts.res.ColdStarts++
			st.fn.ColdStarts++
			core.AdvanceCycles(mem.Cycle(float64(cfg.ColdStartMs * ts.cyclesPerMs)))
		}
	}
	// Placement accounting: a core change is a migration, and (with
	// Jukebox) a base/limit reprogramming on the new core.
	if st.lastCore >= 0 && st.lastCore != idx {
		ts.res.PlacementMigrations++
	}
	if inst.Jukebox != nil && st.lastCore != idx {
		ts.res.JukeboxRebinds++
	}
	// Synchronous dispatch-time replay: run the restore to completion before
	// execution and charge its duration to the invocation. The pre-warm
	// latch makes this pay only for replay work a timely pre-warm did not
	// already do — a fully pre-warmed instance is charged at most the
	// unfinished tail of a replay that fired late in the gap.
	var syncCycles mem.Cycle
	if cfg.SyncReplay {
		po := s.PrewarmOn(idx, inst, predict.MechAuto)
		if po.BusyCycles > 0 {
			core.AdvanceCycles(po.BusyCycles)
			syncCycles = po.BusyCycles
			ts.res.SyncReplays++
			ts.res.SyncReplayMs += float64(po.BusyCycles) / ts.cyclesPerMs
		}
	}
	r := s.InvokeOn(idx, inst)
	ts.busy += r.Cycles + syncCycles
	out.Done = core.Now()
	out.CPI = r.CPI()
	if r.Instrs > 0 {
		out.CPI = float64(r.Cycles+syncCycles) / float64(r.Instrs)
	}
	out.ServiceCycles = float64(r.Cycles + syncCycles)
	out.LatencyCycles = float64(core.Now() - at)
	ts.coreServed[idx]++
	if doomed {
		// The work ran — cycles were burned and foreign state streamed
		// through the core — but the response died with the instance.
		out.Failed = true
		ts.res.Failed++
		st.fn.Failed++
		inst.Evict()
		st.forceCold = true
		st.hasDone = false
		return out
	}
	ts.res.Served++
	st.fn.Served++
	st.fn.CPISum += out.CPI
	ts.res.CPI.Add(out.CPI)
	ts.res.ServiceCycles.Add(out.ServiceCycles)
	ts.res.LatencyCycles.Add(out.LatencyCycles)
	ts.latencies = append(ts.latencies, out.LatencyCycles)
	st.lastDone = core.Now()
	st.hasDone = true
	st.lastCore = idx
	st.servedMark = ts.coreServed[idx]
	return out
}

// Finish seals the run: busy fraction and span are computed and the
// aggregate result returned. The sim must not be dispatched to afterwards.
func (ts *TrafficSim) Finish() TrafficResult {
	// Settle pre-warms left pending at end of run: each instance's
	// forecaster would have scheduled one more after its last completion,
	// and nothing ever arrived to consume it — fully wasted speculation.
	if ts.prewarmer != nil {
		for _, inst := range ts.insts {
			st := ts.state[inst]
			if st == nil || !st.hasDone {
				continue
			}
			mech := ts.prewarmer.Config().Mech(inst.Workload.Name)
			before := ts.prewarmer.Ledger.Expired
			ts.prewarmer.Expire(inst.Workload.Name,
				float64(st.lastDone)/ts.cyclesPerMs,
				ts.prewarmArmed(inst, mech), ts.prewarmCharge(inst, mech))
			if ts.prewarmer.Ledger.Expired > before {
				st.fn.PrewarmsWasted++
			}
		}
		ts.res.Prewarm = ts.prewarmer.Ledger
	}
	var span mem.Cycle
	for _, c := range ts.srv.Cores {
		if d := c.Now() - ts.start; d > span {
			span = d
		}
	}
	if span > 0 {
		ts.res.BusyFraction = float64(ts.busy) / (float64(span) * float64(len(ts.srv.Cores)))
	}
	ts.res.SimulatedMs = float64(span) / ts.cyclesPerMs
	ts.res.P99LatencyCycles = stats.Percentile(ts.latencies, 99)
	ts.res.PerFunction = make([]FuncTraffic, len(ts.perFn))
	for i, fn := range ts.perFn {
		ts.res.PerFunction[i] = *fn
	}
	return ts.res
}

// ServeTraffic runs the arrival process over every deployed instance until
// each has received cfg.InvocationsPerInstance invocations, serving them
// FIFO in arrival order on the core the placement policy picks and evicting
// idle instances per the keep-alive policy. It returns the aggregate result,
// or an error (wrapping cfgerr.ErrBadConfig) for an unserveable
// configuration or a server with no deployed instances.
//
// Idle gaps advance the clock but do not thrash state: with multiple
// co-resident instances the interleaved executions themselves provide the
// (realistic, partial) state destruction.
func (s *Server) ServeTraffic(cfg TrafficConfig) (TrafficResult, error) {
	if len(s.instances) == 0 {
		return TrafficResult{}, cfgerr.New("traffic: server has no deployed instances")
	}
	sim, err := s.NewTrafficSim(cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	rng := program.NewRNG(program.Mix(0x7AF1C, cfg.Seed))
	cyclesPerMs := sim.CyclesPerMs()
	shape := cfg.shape()

	// float64(...) rounds each product, so no architecture fuses it into the
	// unsigned conversion (make fmagate).
	nextGap := func(nowMs float64) mem.Cycle {
		c := mem.Cycle(float64(shape.GapMs(rng, nowMs) * cyclesPerMs))
		if c == 0 {
			c = 1
		}
		return c
	}

	var q sched.Queue[*Instance]
	remaining := map[*Instance]int{}
	for _, inst := range s.instances {
		remaining[inst] = cfg.InvocationsPerInstance
		// Phase-shift first arrivals across instances.
		first := s.Core.Now() + mem.Cycle(float64(rng.Float64()*cfg.MeanIATms*cyclesPerMs))
		q.Push(first, inst)
	}

	for q.Len() > 0 {
		at, inst := q.Pop()
		sim.Dispatch(inst, at, false, q.Due)
		remaining[inst]--
		if remaining[inst] > 0 {
			arrivalMs := float64(at) / cyclesPerMs
			q.Push(at+nextGap(arrivalMs), inst)
		}
	}
	return sim.Finish(), nil
}

// String renders a one-paragraph summary, with a per-function breakdown of
// cold starts and shedding when any occurred.
func (r *TrafficResult) String() string {
	shed := ""
	if r.Shed > 0 {
		shed = fmt.Sprintf(", %d shed", r.Shed)
	}
	if r.Failed > 0 {
		shed += fmt.Sprintf(", %d failed", r.Failed)
	}
	extra := ""
	if r.PrewarmHits > 0 {
		extra += fmt.Sprintf(", %d pre-warm hits", r.PrewarmHits)
	}
	if r.PlacementMigrations > 0 {
		extra += fmt.Sprintf(", %d migrations", r.PlacementMigrations)
	}
	if r.JukeboxRebinds > 0 {
		extra += fmt.Sprintf(", %d jukebox rebinds", r.JukeboxRebinds)
	}
	if r.SyncReplays > 0 {
		extra += fmt.Sprintf(", %d sync replays (%.2f ms on critical path)",
			r.SyncReplays, r.SyncReplayMs)
	}
	out := fmt.Sprintf(
		"served %d of %d offered invocations over %.0f ms simulated (%.1f%% core busy, %d cold starts%s%s); "+
			"mean CPI %.3f; service %.0f cycles mean; latency %.0f mean / %.0f p99 cycles; "+
			"instances resident %.0f ms",
		r.Served, r.Offered, r.SimulatedMs, r.BusyFraction*100, r.ColdStarts, shed, extra,
		r.CPI.Mean(), r.ServiceCycles.Mean(), r.LatencyCycles.Mean(), r.P99LatencyCycles,
		r.ResidentMs)
	if r.ColdStarts > 0 || r.Shed > 0 || r.Failed > 0 {
		var parts []string
		for _, f := range r.PerFunction {
			if f.ColdStarts > 0 || f.Shed > 0 || f.Failed > 0 {
				parts = append(parts, fmt.Sprintf("%s %d cold/%d shed/%d failed", f.Name, f.ColdStarts, f.Shed, f.Failed))
			}
		}
		if len(parts) > 0 {
			out += "; by function: " + strings.Join(parts, ", ")
		}
	}
	if l := r.Prewarm; l.Scheduled > 0 || l.BudgetDenied > 0 {
		out += fmt.Sprintf(
			"; idle tiers %.0f cold / %.0f resident / %.0f pre-warmed of %.0f ms; "+
				"pre-warms %d scheduled: %d used / %d partial / %d wasted (%d expired), "+
				"%d budget-denied, %.1f KiB wasted replay, %.3f ms engine busy, mean |err| %.2f ms",
			r.TierColdMs, r.TierResidentMs, r.TierPrewarmedMs, r.IdleMs,
			l.Scheduled, l.Used, l.Partial, l.Wasted, l.Expired,
			l.BudgetDenied, float64(l.WastedReplayBytes)/1024, l.PrewarmBusyMs, l.MeanAbsErrMs())
		var parts []string
		for _, f := range r.PerFunction {
			if f.PrewarmsUsed > 0 || f.PrewarmsWasted > 0 {
				parts = append(parts, fmt.Sprintf("%s %d used/%d wasted (|err| %.1f ms)",
					f.Name, f.PrewarmsUsed, f.PrewarmsWasted, f.MeanAbsPredErrMs()))
			}
		}
		if len(parts) > 0 {
			out += "; pre-warms by function: " + strings.Join(parts, ", ")
		}
	}
	return out
}
