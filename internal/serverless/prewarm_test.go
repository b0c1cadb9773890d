package serverless

import (
	"math"
	"strings"
	"testing"

	"lukewarm/internal/core"
	"lukewarm/internal/predict"
	"lukewarm/internal/reap"
	"lukewarm/internal/workload"
)

// prewarmServer builds a host whose instances carry both warm-up mechanisms.
func prewarmServer() *Server {
	jb := core.DefaultConfig()
	rc := reap.DefaultConfig()
	return New(Config{Jukebox: &jb, Reap: &rc})
}

// predictTraffic is fixed-spacing traffic (perfectly predictable) with the
// named forecaster armed; fc "" leaves prediction off.
func predictTraffic(fc string, leadMs float64) TrafficConfig {
	cfg := TrafficConfig{
		MeanIATms:              50,
		InvocationsPerInstance: 6,
		Seed:                   3,
	}
	if fc != "" {
		cfg.Predict = &predict.Config{Forecaster: predict.NewForecaster(fc), LeadMs: leadMs}
	}
	return cfg
}

// TestPrewarmOracleUsedSkipsReplay drives the full integration: on a
// perfectly predictable schedule the oracle's pre-warms are all used, every
// used pre-warm makes its invocation skip the dispatch replay, the
// readiness-tier partition accounts for the pre-warmed tail of each gap, and
// the per-function breakdown conserves the ledger.
func TestPrewarmOracleUsedSkipsReplay(t *testing.T) {
	s := prewarmServer()
	deploySubset(t, s, "Auth-G", "Email-P")
	res := mustServe(t, s, predictTraffic("oracle", 4))

	l := res.Prewarm
	if l.Used == 0 {
		t.Fatalf("oracle on fixed spacing committed no used pre-warms: %+v", l)
	}
	if l.ReplaySkips != l.Used {
		t.Errorf("replay skips %d != used %d", l.ReplaySkips, l.Used)
	}
	if l.Scheduled != l.Used+l.Partial+l.Wasted {
		t.Errorf("ledger does not partition: %+v", l)
	}
	if l.Partial != 0 || l.Wasted != l.Expired {
		t.Errorf("oracle recorded mid-run misses: %+v", l)
	}
	if l.MeanAbsErrMs() > 1e-6 {
		t.Errorf("oracle prediction error %g ms, want ~0", l.MeanAbsErrMs())
	}
	if res.TierPrewarmedMs <= 0 {
		t.Errorf("no pre-warmed tier time despite %d used pre-warms", l.Used)
	}
	sum := res.TierColdMs + res.TierResidentMs + res.TierPrewarmedMs
	if math.Abs(sum-res.IdleMs) > 1e-6*res.IdleMs+1e-3 {
		t.Errorf("tier partition broke: %g + %g + %g != %g",
			res.TierColdMs, res.TierResidentMs, res.TierPrewarmedMs, res.IdleMs)
	}
	var used, wasted int
	for _, f := range res.PerFunction {
		used += f.PrewarmsUsed
		wasted += f.PrewarmsWasted
	}
	if used != l.Used || wasted != l.Wasted {
		t.Errorf("per-function pre-warms %d used / %d wasted != ledger %d / %d",
			used, wasted, l.Used, l.Wasted)
	}
	if !strings.Contains(res.String(), "pre-warms") {
		t.Errorf("summary does not render the pre-warm ledger: %s", res.String())
	}
}

// TestPrewarmWastedOnBursty drives the misprediction path: the histogram
// forecaster under the adversarial bursty shape fires into lulls, so the
// wasted side of the ledger fills with real replay bytes.
func TestPrewarmWastedOnBursty(t *testing.T) {
	s := prewarmServer()
	deploySubset(t, s, "Auth-G", "Email-P")
	cfg := predictTraffic("histpeak", 4)
	cfg.Bursty = true
	cfg.InvocationsPerInstance = 24
	res := mustServe(t, s, cfg)

	l := res.Prewarm
	if l.Scheduled == 0 {
		t.Fatalf("histogram forecaster never scheduled: %+v", l)
	}
	if l.Wasted == 0 {
		t.Errorf("bursty shape produced no wasted pre-warms: %+v", l)
	}
	if l.Wasted > 0 && l.WastedReplayBytes == 0 {
		t.Errorf("wasted pre-warms with no wasted bytes: %+v", l)
	}
	if l.MeanAbsErrMs() <= 0 {
		t.Errorf("bursty prediction error %g ms, want positive", l.MeanAbsErrMs())
	}
}

// TestSyncReplayChargedOnBareNotPrewarmed checks the synchronous-restore
// semantics: with SyncReplay the bare baseline pays its dispatch replay on
// the critical path (service time, CPI, latency), while a timely oracle
// pre-warm has already run the replay off the critical path and escapes the
// charge.
func TestSyncReplayChargedOnBareNotPrewarmed(t *testing.T) {
	run := func(fc string, sync bool) TrafficResult {
		s := prewarmServer()
		deploySubset(t, s, "Auth-G", "Email-P")
		cfg := predictTraffic(fc, 4)
		cfg.SyncReplay = sync
		return mustServe(t, s, cfg)
	}

	async := run("", false)
	if async.SyncReplays != 0 || async.SyncReplayMs != 0 {
		t.Fatalf("sync counters without SyncReplay: %d, %g ms", async.SyncReplays, async.SyncReplayMs)
	}
	bare := run("", true)
	if bare.SyncReplays == 0 || bare.SyncReplayMs <= 0 {
		t.Fatalf("bare SyncReplay run charged nothing: %d, %g ms", bare.SyncReplays, bare.SyncReplayMs)
	}
	if bare.ServiceCycles.Mean() <= async.ServiceCycles.Mean() {
		t.Errorf("sync service %.0f cycles not above async %.0f",
			bare.ServiceCycles.Mean(), async.ServiceCycles.Mean())
	}
	if bare.CPI.Mean() <= async.CPI.Mean() {
		t.Errorf("sync CPI %.4f not above async %.4f", bare.CPI.Mean(), async.CPI.Mean())
	}
	if !strings.Contains(bare.String(), "sync replays") {
		t.Errorf("summary does not render sync replays: %s", bare.String())
	}

	oracle := run("oracle", true)
	if oracle.Prewarm.Used == 0 {
		t.Fatalf("oracle committed no used pre-warms: %+v", oracle.Prewarm)
	}
	if oracle.SyncReplayMs >= bare.SyncReplayMs {
		t.Errorf("pre-warmed run paid %.3f ms sync replay, bare paid %.3f ms — pre-warming should shed the charge",
			oracle.SyncReplayMs, bare.SyncReplayMs)
	}
	if oracle.CPI.Mean() >= bare.CPI.Mean() {
		t.Errorf("pre-warmed CPI %.4f not below bare sync CPI %.4f", oracle.CPI.Mean(), bare.CPI.Mean())
	}
}

// TestPrewarmBudgetDenies checks the shared-allowance plumbing at the
// traffic level: a one-grant budget stops the forecaster after its first
// pre-warm and the denials are ledgered, not silently dropped.
func TestPrewarmBudgetDenies(t *testing.T) {
	s := prewarmServer()
	deploySubset(t, s, "Auth-G", "Email-P")
	cfg := predictTraffic("oracle", 4)
	cfg.Predict.Budget = predict.NewBudget(1, 0)
	res := mustServe(t, s, cfg)

	l := res.Prewarm
	if l.Scheduled > 1 {
		t.Errorf("budget of 1 let %d pre-warms through", l.Scheduled)
	}
	if l.BudgetDenied == 0 {
		t.Errorf("no budget denials recorded: %+v", l)
	}
}

// BenchmarkPrewarmSweep measures one pre-warm sweep cell end to end: bursty
// traffic over two instances with both mechanisms deployed, the histogram
// forecaster armed and synchronous restore semantics — the kernel the
// `lukewarm prewarm` experiment runs 40 times.
func BenchmarkPrewarmSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := prewarmServer()
		for _, n := range []string{"Auth-G", "Email-P"} {
			w, err := workload.ByName(n)
			if err != nil {
				b.Fatal(err)
			}
			s.Deploy(w)
		}
		cfg := predictTraffic("histpeak", 4)
		cfg.Bursty = true
		cfg.SyncReplay = true
		cfg.AmbientThrash = true
		cfg.InvocationsPerInstance = 16
		if _, err := s.ServeTraffic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
