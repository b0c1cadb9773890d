package experiments

import (
	"fmt"
	"strings"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/predict"
	"lukewarm/internal/reap"
	"lukewarm/internal/runner"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// The pre-warm experiment asks the prediction question on top of the
// mechanism question: given Jukebox and REAP can repay the lukewarm tax
// *after* dispatch, how much more is recovered by running their replay
// *ahead* of the predicted arrival — and what does speculation cost when the
// forecast is wrong? It sweeps forecaster x lead x arrival shape on a
// single-core host in the lukewarm IAT band with ambient interleaving and
// synchronous restore semantics (TrafficConfig.SyncReplay: an invocation
// cannot run ahead of its own working set, so replay left to dispatch lands
// on the critical path), so every invocation's warmth — and its restore
// bill — is exactly what the pre-warm (or its absence) left behind. Oracle rows bound what prediction can ever recover; the
// bursty shape is the adversarial case where the learned forecasters fire
// into lulls and the wasted-replay ledger fills up.

// Pre-warm sweep parameters: one core, the paper's representative lukewarm
// gap (64 ms, squarely in the tens-to-hundreds-of-ms band of Sec. 2.1),
// ambient thrash so idle gaps decay installed state, and no keep-alive so
// readiness is purely the pre-warm's doing.
const (
	prewarmCores = 1
	prewarmIATms = 64
	prewarmSeed  = 29
)

// prewarmShapes is the arrival-shape axis, most to least predictable.
var prewarmShapes = []sched.ShapeKind{sched.Diurnal, sched.Poisson, sched.HeavyTail, sched.Bursty}

// prewarmForecasters is the forecaster axis (predict.NewForecaster names).
var prewarmForecasters = []string{"histpeak", "ewma", "oracle"}

// prewarmLeads is the lead-time axis in milliseconds: late enough to finish,
// early enough to decay.
var prewarmLeads = []float64{1, 4, 16}

// prewarmMechFor alternates the pre-warmed mechanism across the suite in
// deployment order — both replay engines and the combined stack are
// exercised under prediction in one sweep.
func prewarmMechFor(suite []workload.Workload) func(string) predict.Mech {
	mech := map[string]predict.Mech{}
	for i, w := range suite {
		mech[w.Name] = []predict.Mech{predict.MechAuto, predict.MechReap, predict.MechJukebox}[i%3]
	}
	return func(fn string) predict.Mech { return mech[fn] }
}

// PrewarmRow is one (shape, forecaster, lead) cell of the sweep.
type PrewarmRow struct {
	// Shape names the arrival process.
	Shape string
	// Forecaster names the predictor; "bare" is the no-prediction baseline
	// (mechanisms still replay at dispatch).
	Forecaster string
	// LeadMs is the pre-warm lead (0 for the bare baseline).
	LeadMs float64
	// T is the traffic run's result, pre-warm ledger included.
	T serverless.TrafficResult
}

// PrewarmResult backs the pre-warm experiment.
type PrewarmResult struct {
	// Functions is the measured suite.
	Functions []string
	// Rows holds the sweep, shape-major in prewarmShapes order: the bare
	// baseline first, then forecasters x leads in sweep order.
	Rows []PrewarmRow
	// WarmCPI is the suite's fully warm reference CPI (back-to-back, no
	// interleaving) — the floor no pre-warm can beat.
	WarmCPI float64
}

// prewarmVariant tags one traffic cell; fc is "bare" for the baseline.
func prewarmVariant(shape sched.ShapeKind, fc string, leadMs float64, invocs int) string {
	return fmt.Sprintf("prewarm/%s/%s/lead=%g/cores=%d/iat=%d/inv=%d/seed=%d/sync",
		shape, fc, leadMs, prewarmCores, prewarmIATms, invocs, prewarmSeed)
}

// prewarmSpec is one traffic cell's sweep point.
type prewarmSpec struct {
	shape  sched.ShapeKind
	fc     string
	leadMs float64
	invocs int
}

// traffic builds the cell's traffic configuration with fresh forecaster
// state.
func (sp prewarmSpec) traffic(suite []workload.Workload) serverless.TrafficConfig {
	cfg := serverless.TrafficConfig{
		MeanIATms:              prewarmIATms,
		InvocationsPerInstance: sp.invocs,
		AmbientThrash:          true,
		// Production restore semantics: dispatch-time replay blocks the
		// invocation, so every cell — the bare baseline included — pays its
		// restore on the critical path unless a timely pre-warm already ran
		// it. This is the cost axis the forecaster competes on.
		SyncReplay: true,
		Seed:       prewarmSeed,
	}
	switch sp.shape {
	case sched.Diurnal:
		cfg.Diurnal = true
	case sched.Bursty:
		cfg.Bursty = true
	case sched.HeavyTail:
		cfg.HeavyTail = true
	case sched.Poisson:
		cfg.Poisson = true
	}
	if sp.fc != "bare" {
		cfg.Predict = &predict.Config{
			Forecaster: predict.NewForecaster(sp.fc),
			LeadMs:     sp.leadMs,
			MechFor:    prewarmMechFor(suite),
		}
	}
	return cfg
}

// Prewarm runs the predictive pre-warm experiment (see DESIGN.md Sec. 12):
// forecaster x lead x arrival shape over the language representatives, with
// a bare (replay-at-dispatch) baseline per shape and a fully warm reference
// closing the penalty scale.
func Prewarm(opt Options) (PrewarmResult, error) {
	opt = opt.withDefaults()
	if len(opt.Functions) == 0 {
		opt.Functions = workload.Representatives()
	}
	out := PrewarmResult{Functions: opt.Functions}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}

	// The histogram forecaster needs DefaultMinSamples observed gaps per
	// function before it predicts at all; give every run enough arrivals to
	// show the learned phase and to fill the misprediction ledger.
	invocs := 2 * (opt.Measure + opt.Warmup)
	if invocs < 16 {
		invocs = 16
	}

	var specs []prewarmSpec
	for _, shape := range prewarmShapes {
		specs = append(specs, prewarmSpec{shape: shape, fc: "bare", invocs: invocs})
		for _, fc := range prewarmForecasters {
			for _, lead := range prewarmLeads {
				specs = append(specs, prewarmSpec{shape: shape, fc: fc, leadMs: lead, invocs: invocs})
			}
		}
	}

	var cells []runner.Cell
	for _, sp := range specs {
		jb := core.DefaultConfig()
		rc := reap.DefaultConfig()
		c := opt.trafficCell(prewarmVariant(sp.shape, sp.fc, sp.leadMs, sp.invocs),
			suite, prewarmCores, &jb, lukewarm,
			func() serverless.TrafficConfig { return sp.traffic(suite) })
		c.Reap = &rc
		cells = append(cells, c)
	}
	// The warm references: back-to-back invocations of each function after
	// a lukewarm warm-up, nothing disturbed, no mechanisms — the readiness
	// ceiling every pre-warm chases.
	warmStart := len(cells)
	for _, w := range suite {
		cells = append(cells, warmedUnder(opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, reference), lukewarm))
	}

	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}

	for i, sp := range specs {
		out.Rows = append(out.Rows, PrewarmRow{
			Shape: sp.shape.String(), Forecaster: sp.fc, LeadMs: sp.leadMs,
			T: *ms[i].Traffic,
		})
	}
	var warm []float64
	for i := range suite {
		m := ms[warmStart+i]
		if m.Instrs > 0 {
			warm = append(warm, float64(m.Cycles)/float64(m.Instrs))
		}
	}
	// Arithmetic mean matches the traffic engine's equal-weight per-
	// invocation CPI mean across a suite with equal arrival counts.
	out.WarmCPI = stats.Mean(warm)
	return out, nil
}

// row finds one sweep cell.
func (r PrewarmResult) row(shape, fc string, leadMs float64) (PrewarmRow, bool) {
	for _, row := range r.Rows {
		//lukewarm:floateq LeadMs is an exact swept parameter, not arithmetic
		if row.Shape == shape && row.Forecaster == fc && row.LeadMs == leadMs {
			return row, true
		}
	}
	return PrewarmRow{}, false
}

// PenaltyRemovedPct reports how much of the shape's lukewarm CPI penalty
// (bare minus warm reference) the (forecaster, lead) cell removed, in
// percent. 100% would mean pre-warming made traffic CPI fully warm.
func (r PrewarmResult) PenaltyRemovedPct(shape, fc string, leadMs float64) float64 {
	bare, okB := r.row(shape, "bare", 0)
	own, okO := r.row(shape, fc, leadMs)
	if !okB || !okO {
		return 0
	}
	penalty := bare.T.CPI.Mean() - r.WarmCPI
	if penalty <= 0 {
		return 0
	}
	return (bare.T.CPI.Mean() - own.T.CPI.Mean()) / penalty * 100
}

// OracleBestPenaltyRemovedPct reports the oracle's best penalty recovery
// over every (shape, lead) — the experiment's headline upper bound — and
// where it lands.
func (r PrewarmResult) OracleBestPenaltyRemovedPct() (shape string, leadMs, pct float64) {
	for _, sh := range prewarmShapes {
		for _, lead := range prewarmLeads {
			if p := r.PenaltyRemovedPct(sh.String(), "oracle", lead); shape == "" || p > pct {
				shape, leadMs, pct = sh.String(), lead, p
			}
		}
	}
	return shape, leadMs, pct
}

// BurstyHistpeakWastedFraction reports the histogram forecaster's worst
// wasted-pre-warm fraction under the adversarial bursty shape across swept
// leads — the experiment's headline misprediction cost.
func (r PrewarmResult) BurstyHistpeakWastedFraction() float64 {
	worst := 0.0
	for _, lead := range prewarmLeads {
		if row, ok := r.row("bursty", "histpeak", lead); ok {
			if f := row.T.Prewarm.WastedFraction(); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// Table renders the sweep: readiness recovered against speculation spent.
func (r PrewarmResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Predictive pre-warm: forecaster x lead x shape (%s; %d core, IAT %d ms, warm ref CPI %.3f)",
			strings.Join(r.Functions, "+"), prewarmCores, prewarmIATms, r.WarmCPI),
		"Shape", "Forecaster", "Lead [ms]", "Mean CPI", "Penalty removed",
		"Sched", "Used/Part/Waste", "Wasted KiB", "|err| [ms]", "Prewarmed [ms]", "p99 lat [cyc]")
	for _, row := range r.Rows {
		lead, removed := "-", "-"
		if row.Forecaster != "bare" {
			lead = fmt.Sprintf("%g", row.LeadMs)
			removed = fmt.Sprintf("%.0f%%", r.PenaltyRemovedPct(row.Shape, row.Forecaster, row.LeadMs))
		}
		l := row.T.Prewarm
		t.AddRow(row.Shape, row.Forecaster, lead,
			fmt.Sprintf("%.3f", row.T.CPI.Mean()), removed,
			fmt.Sprint(l.Scheduled),
			fmt.Sprintf("%d/%d/%d", l.Used, l.Partial, l.Wasted),
			fmt.Sprintf("%.1f", float64(l.WastedReplayBytes)/1024),
			fmt.Sprintf("%.1f", l.MeanAbsErrMs()),
			fmt.Sprintf("%.0f", row.T.TierPrewarmedMs),
			fmt.Sprintf("%.0f", row.T.P99LatencyCycles))
	}
	return t
}
