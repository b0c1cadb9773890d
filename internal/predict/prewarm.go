package predict

import (
	"math"

	"lukewarm/internal/cfgerr"
)

// Mech selects which warm-up mechanism a pre-warm runs for a function.
type Mech uint8

const (
	// MechAuto runs every mechanism the instance has attached (REAP's page
	// restore first, then Jukebox's region replay — the InvokeOn order).
	MechAuto Mech = iota
	// MechJukebox pre-runs only the Jukebox metadata replay.
	MechJukebox
	// MechReap pre-runs only the REAP manifest restore.
	MechReap
)

// String names the mechanism for tables and variant tags.
func (m Mech) String() string {
	switch m {
	case MechJukebox:
		return "jukebox"
	case MechReap:
		return "reap"
	}
	return "auto"
}

// DefaultLeadMs is the default pre-warm lead: fire the replay this many
// milliseconds before the predicted arrival.
const DefaultLeadMs = 4

// minConfidence gates scheduling: predictions below it are observed but
// never acted on.
const minConfidence = 0.05

// Config arms a traffic simulation with predictive pre-warming.
type Config struct {
	// Forecaster predicts each function's next arrival. Required.
	Forecaster Forecaster
	// LeadMs fires the pre-warm this many milliseconds before the predicted
	// arrival: large enough that the replay completes before dispatch,
	// small enough that ambient interleaving has not re-thrashed the
	// installed state. Zero selects DefaultLeadMs.
	LeadMs float64
	// MechFor selects the mechanism pre-warmed per function; nil selects
	// MechAuto for every function.
	MechFor func(fn string) Mech
	// Budget, when non-nil, is the fleet-level pre-warm allowance shared by
	// every node's simulation — hedged or retried traffic judged on two
	// nodes must not pre-warm (and charge) twice.
	Budget *Budget
}

// Validate reports whether the configuration is realizable. Errors wrap
// cfgerr.ErrBadConfig.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	switch {
	case c.Forecaster == nil:
		return cfgerr.New("predict: Config.Forecaster is required")
	case !(c.LeadMs >= 0) || math.IsInf(c.LeadMs, 1):
		return cfgerr.New("predict: LeadMs must be finite and non-negative, got %g", c.LeadMs)
	}
	return c.Budget.Validate()
}

// leadMs resolves the effective lead.
func (c *Config) leadMs() float64 {
	if c.LeadMs > 0 {
		return c.LeadMs
	}
	return DefaultLeadMs
}

// freshnessMs bounds how stale a fired pre-warm may be and still count as
// used: an arrival later than lead+freshness past the pre-warm point finds
// the warmth decayed and pays a full dispatch replay (the pre-warm is
// charged as wasted). Twice the lead makes the used window symmetric around
// the predicted arrival.
func (c *Config) freshnessMs() float64 { return 2 * c.leadMs() }

// Mech resolves the mechanism choice for fn.
func (c *Config) Mech(fn string) Mech {
	if c.MechFor == nil {
		return MechAuto
	}
	return c.MechFor(fn)
}

// Verdict classifies one judged idle gap's pre-warm.
type Verdict uint8

const (
	// VerdictNone: no pre-warm was scheduled for the gap (no prediction,
	// confidence below the gate, the mechanism had nothing sealed to
	// replay, or the budget denied it).
	VerdictNone Verdict = iota
	// VerdictUsed: the pre-warm fired before the arrival and the arrival
	// came within the freshness window — the invocation skips its replay.
	VerdictUsed
	// VerdictPartial: the function arrived before the scheduled pre-warm
	// fired; the in-flight replay folds into the dispatch replay (partial
	// warmth, half the replay volume charged).
	VerdictPartial
	// VerdictWasted: the function arrived so long after the pre-warm fired
	// that the installed warmth decayed (or never arrived at all); the full
	// replay volume and engine occupancy were spent for nothing.
	VerdictWasted
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictUsed:
		return "used"
	case VerdictPartial:
		return "partial"
	case VerdictWasted:
		return "wasted"
	}
	return "none"
}

// Charge describes what one pre-warm of a function would cost if wasted: the
// full replay prefetch volume and the replay-engine occupancy.
type Charge struct {
	// Bytes is the full-replay prefetch volume estimate.
	Bytes uint64
	// BusyMs is the replay-engine occupancy estimate in milliseconds.
	BusyMs float64
}

// Outcome is the Prewarmer's judgment of one idle gap.
type Outcome struct {
	// Verdict classifies the gap's pre-warm (see Verdict).
	Verdict Verdict
	// HavePred reports a prediction existed for the gap (error accounting
	// ran even when no pre-warm was scheduled).
	HavePred bool
	// PredIATms is the predicted gap, valid when HavePred.
	PredIATms float64
	// AbsErrMs is |predicted - observed|, valid when HavePred.
	AbsErrMs float64
	// FireMs is the pre-warm point as an offset from the last completion
	// (max(0, predicted - lead)), valid when a pre-warm was scheduled. For
	// VerdictUsed the caller replays the mechanism at this point in the gap
	// and commits the actual cost via CommitUsed.
	FireMs float64
}

// Ledger is the pre-warm conservation ledger faults.AuditPredict checks:
// every scheduled pre-warm lands in exactly one of used, partial or wasted,
// and every used pre-warm corresponds to one invocation that skipped its
// replay phase.
type Ledger struct {
	// Scheduled counts pre-warms committed: Scheduled == Used + Partial +
	// Wasted.
	Scheduled int
	// Used counts pre-warms whose warmth the next invocation consumed.
	Used int
	// Partial counts pre-warms overtaken by an early arrival.
	Partial int
	// Wasted counts pre-warms whose warmth decayed unused; Expired is the
	// subset whose function never arrived again before the run ended.
	Wasted  int
	Expired int
	// ReplaySkips counts invocations that skipped their dispatch replay
	// because a used pre-warm had already run it (== Used).
	ReplaySkips int
	// BudgetDenied counts pre-warms the shared fleet budget refused; they
	// are not Scheduled.
	BudgetDenied int
	// Judged counts idle gaps judged with a prediction in hand; AbsErrMsSum
	// accumulates |predicted - observed| over them.
	Judged      int
	AbsErrMsSum float64
	// UsedReplayBytes is the prefetch volume of used pre-warms;
	// PartialReplayBytes the half-volume charged to overtaken pre-warms;
	// WastedReplayBytes the full volume of wasted ones.
	UsedReplayBytes    uint64
	PartialReplayBytes uint64
	WastedReplayBytes  uint64
	// PrewarmBusyMs accumulates replay-engine occupancy spent on pre-warms
	// (used and wasted alike) — the occupied-instance cost of speculation.
	PrewarmBusyMs float64
}

// MeanAbsErrMs reports the mean absolute prediction error over judged gaps.
func (l Ledger) MeanAbsErrMs() float64 {
	if l.Judged == 0 {
		return 0
	}
	return l.AbsErrMsSum / float64(l.Judged)
}

// WastedFraction reports wasted / scheduled pre-warms, the headline
// misprediction metric.
func (l Ledger) WastedFraction() float64 {
	if l.Scheduled == 0 {
		return 0
	}
	return float64(l.Wasted) / float64(l.Scheduled)
}

// Add accumulates o into l (fleet-level aggregation).
func (l *Ledger) Add(o Ledger) {
	l.Scheduled += o.Scheduled
	l.Used += o.Used
	l.Partial += o.Partial
	l.Wasted += o.Wasted
	l.Expired += o.Expired
	l.ReplaySkips += o.ReplaySkips
	l.BudgetDenied += o.BudgetDenied
	l.Judged += o.Judged
	l.AbsErrMsSum += o.AbsErrMsSum
	l.UsedReplayBytes += o.UsedReplayBytes
	l.PartialReplayBytes += o.PartialReplayBytes
	l.WastedReplayBytes += o.WastedReplayBytes
	l.PrewarmBusyMs += o.PrewarmBusyMs
}

// Prewarmer drives the readiness ladder for one traffic simulation. The
// traffic engine owns the event loop, so judgment is lazy: at each arrival
// the Prewarmer reconstructs the decision that was made at the previous
// completion — predict the gap, schedule the replay LeadMs early, fire it —
// and classifies how that pre-warm fared against the observed gap. Calls
// arrive in deterministic dispatch order; the Prewarmer draws no randomness.
type Prewarmer struct {
	cfg    *Config
	Ledger Ledger
}

// NewPrewarmer builds a Prewarmer over a validated Config.
func NewPrewarmer(cfg *Config) *Prewarmer { return &Prewarmer{cfg: cfg} }

// Config exposes the configuration in effect.
func (p *Prewarmer) Config() *Config { return p.cfg }

// Judge classifies the pre-warm of one idle gap of fn ending at absolute
// time atMs. armed reports whether the function's mechanism had sealed state
// to replay (an unarmed function is observed but never scheduled); charge is
// what a wasted pre-warm of it costs. Partial and wasted verdicts are
// charged to the ledger here; a VerdictUsed outcome is provisional until the
// caller replays the mechanism at FireMs and calls CommitUsed with the
// actual cost.
func (p *Prewarmer) Judge(fn string, idleMs, atMs float64, armed bool, charge Charge) Outcome {
	f := p.cfg.Forecaster
	if pk, ok := f.(schedulePeeker); ok {
		// The oracle reads the true schedule, which for the gap being
		// judged is exactly the observed gap.
		pk.SetNext(fn, idleMs)
	}
	pred, ok := f.Predict(fn)
	f.Observe(fn, idleMs)
	if !ok {
		return Outcome{}
	}
	out := Outcome{HavePred: true, PredIATms: pred.IATms}
	out.AbsErrMs = pred.IATms - idleMs
	if out.AbsErrMs < 0 {
		out.AbsErrMs = -out.AbsErrMs
	}
	p.Ledger.Judged++
	p.Ledger.AbsErrMsSum += out.AbsErrMs
	if !armed || pred.Confidence < minConfidence {
		return out
	}
	fire := pred.IATms - p.cfg.leadMs()
	if fire < 0 {
		fire = 0
	}
	// The pre-warm would fire at (completion + fire); charge it against the
	// fleet budget at that absolute time.
	if !p.cfg.Budget.Allow(fn, atMs-idleMs+fire) {
		p.Ledger.BudgetDenied++
		return out
	}
	out.FireMs = fire
	switch {
	case idleMs < fire:
		// The function came back before the scheduled replay ran: the
		// in-flight pre-warm folds into the dispatch replay (partial
		// warmth), costing half its volume in speculative traffic.
		out.Verdict = VerdictPartial
		p.Ledger.Scheduled++
		p.Ledger.Partial++
		p.Ledger.PartialReplayBytes += charge.Bytes / 2
	case idleMs <= fire+p.cfg.freshnessMs():
		// Fired before the arrival and still fresh: the caller replays at
		// FireMs and commits the actual cost.
		out.Verdict = VerdictUsed
	default:
		// Fired so early the warmth decayed before the arrival: full waste.
		out.Verdict = VerdictWasted
		p.Ledger.Scheduled++
		p.Ledger.Wasted++
		p.Ledger.WastedReplayBytes += charge.Bytes
		p.Ledger.PrewarmBusyMs += charge.BusyMs
	}
	return out
}

// CommitUsed settles a VerdictUsed judgment after the caller ran the
// pre-warm: ran reports whether a replay actually issued (a degraded
// mechanism may refuse), bytes and busyMs its actual cost. When ran is
// false, nothing was installed and nothing is charged — the pre-warm is not
// Scheduled and the invocation must run its own replay.
func (p *Prewarmer) CommitUsed(ran bool, bytes uint64, busyMs float64) {
	if !ran {
		return
	}
	p.Ledger.Scheduled++
	p.Ledger.Used++
	p.Ledger.ReplaySkips++
	p.Ledger.UsedReplayBytes += bytes
	p.Ledger.PrewarmBusyMs += busyMs
}

// Expire settles the pre-warm pending after fn's last completion (at
// absolute time lastDoneMs) when the run ends with no further arrival: the
// forecaster would have scheduled it, nothing ever consumed it. armed and
// charge mirror Judge's parameters. The oracle never expires — with no
// schedule left to peek it predicts nothing.
func (p *Prewarmer) Expire(fn string, lastDoneMs float64, armed bool, charge Charge) {
	pred, ok := p.cfg.Forecaster.Predict(fn)
	if !ok || !armed || pred.Confidence < minConfidence {
		return
	}
	fire := pred.IATms - p.cfg.leadMs()
	if fire < 0 {
		fire = 0
	}
	if !p.cfg.Budget.Allow(fn, lastDoneMs+fire) {
		p.Ledger.BudgetDenied++
		return
	}
	p.Ledger.Scheduled++
	p.Ledger.Wasted++
	p.Ledger.Expired++
	p.Ledger.WastedReplayBytes += charge.Bytes
	p.Ledger.PrewarmBusyMs += charge.BusyMs
}
