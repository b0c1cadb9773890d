package predict

import (
	"errors"
	"math"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/sched"
)

func TestHistogramPeakLearnsPeriodicFunction(t *testing.T) {
	f := HistogramPeak(0, 0)
	if _, ok := f.Predict("a"); ok {
		t.Fatal("predicted with no observations")
	}
	for i := 0; i < 3; i++ {
		f.Observe("a", 64)
	}
	if _, ok := f.Predict("a"); ok {
		t.Fatal("predicted below MinSamples")
	}
	f.Observe("a", 64)
	p, ok := f.Predict("a")
	if !ok {
		t.Fatal("no prediction after MinSamples observations")
	}
	if p.IATms < 58 || p.IATms > 72 {
		t.Errorf("predicted %g ms, want ~64 within bin resolution", p.IATms)
	}
	if p.Confidence != 1 {
		t.Errorf("confidence %g on a perfectly periodic function, want 1", p.Confidence)
	}
	// Per-function isolation: function b is still unlearned.
	if _, ok := f.Predict("b"); ok {
		t.Error("prediction leaked across functions")
	}
}

func TestHistogramPeakBurstyLocksOntoMode(t *testing.T) {
	f := HistogramPeak(0, 0)
	// 80/20 bursty mixture: short 8 ms intra-burst gaps, 300 ms lulls. The
	// mode-seeker must predict the short gap — the adversarial behavior the
	// prewarm sweep charges wasted replays to.
	for i := 0; i < 40; i++ {
		f.Observe("f", 8)
	}
	for i := 0; i < 10; i++ {
		f.Observe("f", 300)
	}
	p, ok := f.Predict("f")
	if !ok {
		t.Fatal("no prediction")
	}
	if p.IATms > 20 {
		t.Errorf("predicted %g ms, want the ~8 ms burst mode", p.IATms)
	}
	if p.Confidence < 0.7 || p.Confidence > 0.9 {
		t.Errorf("confidence %g, want ~0.8 (the burst mass)", p.Confidence)
	}
}

func TestEWMATracksAndGrades(t *testing.T) {
	f := EWMA(0)
	if _, ok := f.Predict("a"); ok {
		t.Fatal("predicted with no observations")
	}
	f.Observe("a", 100)
	if _, ok := f.Predict("a"); ok {
		t.Fatal("predicted from a single observation")
	}
	for i := 0; i < 20; i++ {
		f.Observe("a", 100)
	}
	p, ok := f.Predict("a")
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(p.IATms-100) > 1e-9 {
		t.Errorf("steady stream predicted %g, want 100", p.IATms)
	}
	if p.Confidence < 0.95 {
		t.Errorf("steady-stream confidence %g, want ~1", p.Confidence)
	}
	// A wildly alternating stream must erode confidence.
	g := EWMA(0)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			g.Observe("b", 1)
		} else {
			g.Observe("b", 400)
		}
	}
	q, ok := g.Predict("b")
	if !ok {
		t.Fatal("no prediction for alternating stream")
	}
	if q.Confidence > 0.5 {
		t.Errorf("alternating-stream confidence %g, want low", q.Confidence)
	}
}

func TestOraclePeeksExactly(t *testing.T) {
	f := Oracle()
	if _, ok := f.Predict("a"); ok {
		t.Fatal("oracle predicted without a peek")
	}
	f.(*oracle).SetNext("a", 123)
	p, ok := f.Predict("a")
	if !ok || p.IATms != 123 || p.Confidence != 1 {
		t.Fatalf("peeked prediction = %+v, %v; want 123 ms at confidence 1", p, ok)
	}
	// The peek is consumed: a second predict (the expiry sweep) sees nothing.
	if _, ok := f.Predict("a"); ok {
		t.Error("oracle predicted from a consumed peek")
	}
}

// judge runs one gap through a fresh single-function scenario.
func judgeGaps(t *testing.T, cfg *Config, gaps []float64, charge Charge) (*Prewarmer, []Outcome) {
	t.Helper()
	p := NewPrewarmer(cfg)
	at := 0.0
	outs := make([]Outcome, 0, len(gaps))
	for _, g := range gaps {
		at += g
		o := p.Judge("f", g, at, true, charge)
		if o.Verdict == VerdictUsed {
			p.CommitUsed(true, charge.Bytes, charge.BusyMs)
		}
		outs = append(outs, o)
	}
	return p, outs
}

func TestPrewarmerOracleAlwaysUsed(t *testing.T) {
	cfg := &Config{Forecaster: Oracle(), LeadMs: 4}
	gaps := []float64{1, 3, 64, 500, 0.5, 12}
	p, outs := judgeGaps(t, cfg, gaps, Charge{Bytes: 1000, BusyMs: 0.1})
	for i, o := range outs {
		if o.Verdict != VerdictUsed {
			t.Errorf("gap %d (%g ms): verdict %v, want used", i, gaps[i], o.Verdict)
		}
	}
	l := p.Ledger
	if l.Used != len(gaps) || l.Partial != 0 || l.Wasted != 0 {
		t.Errorf("oracle ledger %+v, want all %d used", l, len(gaps))
	}
	if l.AbsErrMsSum != 0 {
		t.Errorf("oracle AbsErrMsSum %g, want 0", l.AbsErrMsSum)
	}
	if l.ReplaySkips != l.Used {
		t.Errorf("ReplaySkips %d != Used %d", l.ReplaySkips, l.Used)
	}
	// Expiry sweep: the oracle has nothing peeked, so nothing expires.
	p.Expire("f", 1000, true, Charge{Bytes: 1000})
	if p.Ledger.Expired != 0 {
		t.Errorf("oracle expired %d pre-warms, want 0", p.Ledger.Expired)
	}
}

func TestPrewarmerVerdictPartition(t *testing.T) {
	// A constant-prediction forecaster via EWMA locked at 100 ms.
	f := EWMA(0.001)
	for i := 0; i < 50; i++ {
		f.Observe("f", 100)
	}
	cfg := &Config{Forecaster: f, LeadMs: 10}
	p := NewPrewarmer(cfg)
	charge := Charge{Bytes: 4096, BusyMs: 0.5}
	// Fire point is ~90 ms. Early (50 ms) → partial; on time (100 ms) →
	// used; late (400 ms) → wasted.
	cases := []struct {
		gap  float64
		want Verdict
	}{{50, VerdictPartial}, {100, VerdictUsed}, {400, VerdictWasted}}
	at := 0.0
	for _, c := range cases {
		at += c.gap
		o := p.Judge("f", c.gap, at, true, charge)
		if o.Verdict != c.want {
			t.Errorf("gap %g ms: verdict %v, want %v (pred %g, fire %g)", c.gap, o.Verdict, c.want, o.PredIATms, o.FireMs)
		}
		if o.Verdict == VerdictUsed {
			p.CommitUsed(true, 2048, 0.25)
		}
	}
	l := p.Ledger
	if l.Scheduled != l.Used+l.Partial+l.Wasted {
		t.Errorf("partition broken: %+v", l)
	}
	if l.Scheduled != 3 || l.Used != 1 || l.Partial != 1 || l.Wasted != 1 {
		t.Errorf("ledger %+v, want 1 of each verdict", l)
	}
	if l.PartialReplayBytes != 2048 || l.WastedReplayBytes != 4096 || l.UsedReplayBytes != 2048 {
		t.Errorf("byte charges wrong: %+v", l)
	}
	// Unarmed judgment observes but never schedules.
	p2 := NewPrewarmer(&Config{Forecaster: Oracle()})
	if o := p2.Judge("g", 50, 50, false, charge); o.Verdict != VerdictNone {
		t.Errorf("unarmed judge scheduled: %+v", o)
	}
	if p2.Ledger.Scheduled != 0 || p2.Ledger.Judged != 1 {
		t.Errorf("unarmed ledger %+v", p2.Ledger)
	}
}

func TestPrewarmerCommitUsedNotRan(t *testing.T) {
	cfg := &Config{Forecaster: Oracle(), LeadMs: 4}
	p := NewPrewarmer(cfg)
	o := p.Judge("f", 64, 64, true, Charge{Bytes: 100})
	if o.Verdict != VerdictUsed {
		t.Fatalf("verdict %v", o.Verdict)
	}
	p.CommitUsed(false, 0, 0)
	if p.Ledger.Scheduled != 0 || p.Ledger.Used != 0 || p.Ledger.ReplaySkips != 0 {
		t.Errorf("refused pre-warm charged: %+v", p.Ledger)
	}
}

func TestPrewarmerExpiry(t *testing.T) {
	f := EWMA(0.5)
	for i := 0; i < 10; i++ {
		f.Observe("f", 80)
	}
	p := NewPrewarmer(&Config{Forecaster: f, LeadMs: 4})
	p.Expire("f", 800, true, Charge{Bytes: 640, BusyMs: 0.1})
	l := p.Ledger
	if l.Scheduled != 1 || l.Wasted != 1 || l.Expired != 1 {
		t.Errorf("expiry ledger %+v", l)
	}
	if l.WastedReplayBytes != 640 {
		t.Errorf("expiry bytes %d, want 640", l.WastedReplayBytes)
	}
}

func TestBudgetRefractoryAndCap(t *testing.T) {
	b := NewBudget(3, 50)
	if !b.Allow("f", 100) {
		t.Fatal("first grant denied")
	}
	if b.Allow("f", 120) {
		t.Error("grant inside the refractory window")
	}
	if !b.Allow("g", 120) {
		t.Error("other function denied by f's window")
	}
	if !b.Allow("f", 200) {
		t.Error("grant past the refractory window denied")
	}
	if b.Allow("h", 300) {
		t.Error("grant beyond the total cap")
	}
	if b.Granted() != 3 {
		t.Errorf("granted %d, want 3", b.Granted())
	}
	// nil budget allows everything.
	var nb *Budget
	if !nb.Allow("x", 0) {
		t.Error("nil budget denied")
	}
}

// TestBudgetValidate checks the budget domain: a negative total and a
// negative or NaN refractory window are rejected, and +Inf grants each
// function one pre-warm for the whole run.
func TestBudgetValidate(t *testing.T) {
	for _, b := range []*Budget{NewBudget(-1, 0), NewBudget(2, -1), NewBudget(2, math.NaN()), NewBudget(0, math.Inf(-1))} {
		if err := b.Validate(); !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Errorf("NewBudget(%d, %g).Validate() = %v, want ErrBadConfig", b.total, b.refractoryMs, err)
		}
		cfg := &Config{Forecaster: Oracle(), Budget: b}
		if err := cfg.Validate(); !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Errorf("Config with budget (%d, %g): Validate() = %v, want ErrBadConfig", b.total, b.refractoryMs, err)
		}
	}
	var nb *Budget
	if err := nb.Validate(); err != nil {
		t.Errorf("nil budget: %v", err)
	}
	b := NewBudget(0, math.Inf(1))
	if err := b.Validate(); err != nil {
		t.Fatalf("+Inf refractory window: %v", err)
	}
	if !b.Allow("f", 0) || b.Allow("f", 1e9) || !b.Allow("g", 5) || b.Allow("g", -1e9) {
		t.Error("+Inf refractory window: want one grant per function for the whole run")
	}
}

func TestPrewarmerBudgetDenial(t *testing.T) {
	cfg := &Config{Forecaster: Oracle(), LeadMs: 4, Budget: NewBudget(0, 1000)}
	p := NewPrewarmer(cfg)
	o := p.Judge("f", 64, 64, true, Charge{})
	if o.Verdict != VerdictUsed {
		t.Fatalf("first judgment %v", o.Verdict)
	}
	p.CommitUsed(true, 10, 0)
	// Second arrival 64 ms later: inside the 1 s refractory window.
	o = p.Judge("f", 64, 128, true, Charge{})
	if o.Verdict != VerdictNone {
		t.Errorf("refractory-denied judgment %v, want none", o.Verdict)
	}
	if p.Ledger.BudgetDenied != 1 {
		t.Errorf("BudgetDenied %d, want 1", p.Ledger.BudgetDenied)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{}).Validate(); err == nil {
		t.Error("nil forecaster accepted")
	}
	if err := (&Config{Forecaster: Oracle(), LeadMs: -1}).Validate(); err == nil {
		t.Error("negative lead accepted")
	}
	if err := (&Config{Forecaster: Oracle()}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config (predict disabled) rejected: %v", err)
	}
}

func TestNewForecaster(t *testing.T) {
	for _, name := range []string{"histpeak", "ewma", "oracle"} {
		f := NewForecaster(name)
		if f == nil || f.Name() != name {
			t.Errorf("NewForecaster(%q) = %v", name, f)
		}
	}
	if NewForecaster("nope") != nil {
		t.Error("unknown forecaster name built something")
	}
}

// BenchmarkForecast measures the per-arrival forecasting cost the dispatch
// path pays: one Observe plus one Predict against a learned model.
func BenchmarkForecast(b *testing.B) {
	gaps := sched.Shape{Kind: sched.Bursty, MeanIATms: 64}.Sequence(7, 1, 4096)
	for _, f := range []Forecaster{HistogramPeak(0, 0), EWMA(0)} {
		b.Run(f.Name(), func(b *testing.B) {
			for _, g := range gaps {
				f.Observe("f", g)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Observe("f", gaps[i%len(gaps)])
				if _, ok := f.Predict("f"); !ok {
					b.Fatal("no prediction")
				}
			}
		})
	}
}
