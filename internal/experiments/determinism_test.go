package experiments

import (
	"fmt"
	"testing"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/runner"
)

// detOpt is a small subset so each table renders in a few seconds.
var detOpt = Options{
	Functions: []string{"Auth-G", "Pay-N"},
	Warmup:    1,
	Measure:   2,
}

// renderTables produces the determinism-gated tables with the given engine.
func renderTables(t *testing.T, eng *runner.Engine) map[string]string {
	t.Helper()
	opt := detOpt
	opt.Engine = eng

	char, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := Performance(opt, cpu.SkylakeConfig(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f13, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Sched(opt)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Cluster(opt)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Coldstart(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServerSim(opt)
	if err != nil {
		t.Fatal(err)
	}
	scl, err := Scaling(opt)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Footprints(opt, 5)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"fig2":  char.Fig2Table().String(),
		"fig10": perf.Fig10Table().String(),
		"fig13": f13.Table().String(),
		// The scheduling tables gate the arrival processes themselves: every
		// sweep cell draws a full Poisson, heavy-tail or diurnal arrival
		// sequence, so a single worker-dependent or cache-dependent draw
		// shows up as a byte difference here.
		"sched-place": sc.Table().String(),
		"sched-keep":  sc.KeepAliveTable().String(),
		// The cluster tables gate the fleet simulation: arrival draws, keyed
		// fault draws, retry backoff jitter and crash schedules all feed
		// these bytes, so any worker- or cache-order dependence surfaces.
		"cluster":     cl.Table().String(),
		"cluster-lat": cl.LatencyTable().String(),
		// The coldstart tables gate the REAP restore engine: manifest replay
		// order, blind line streaming, TLB-probe deltas and the staleness
		// sweep's drifted workload variants all feed these bytes.
		"coldstart":           cs.Table().String(),
		"coldstart-crossover": cs.CrossoverTable().String(),
		"coldstart-staleness": cs.StalenessTable().String(),
		// The server and scaling tables gate the traffic engine on one to
		// four cores under ambient thrash, through the same cached traffic
		// cells as the scheduling sweep.
		"server":  srv.Table().String(),
		"scaling": scl.Table().String(),
		// The footprint and chaos tables gate the two cell kinds that report
		// summaries and verdicts rather than a measurement window: the
		// footprint walks' Jaccard summaries and every fault cell's verdict.
		"fig6a": fp.Fig6aTable().String(),
		"fig6b": fp.Fig6bTable().String(),
		"chaos": ch.Table().String(),
		// The raw rows are stricter than the rendered tables (no rounding):
		// every counter and float must match bit-for-bit.
		"sched-rows":     fmt.Sprintf("%+v", sc),
		"cluster-rows":   fmt.Sprintf("%+v", cl),
		"coldstart-rows": fmt.Sprintf("%+v", cs),
		"server-rows":    fmt.Sprintf("%+v", srv),
		"scaling-rows":   fmt.Sprintf("%+v", scl),
		"fig6-rows":      fmt.Sprintf("%+v", fp),
		"chaos-rows":     fmt.Sprintf("%+v", ch),
	}
}

func engineWith(t *testing.T, jobs int, dir string) *runner.Engine {
	t.Helper()
	e, err := runner.New(runner.Config{Jobs: jobs, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTablesDeterministicAcrossJobsAndCache is the engine's end-to-end
// regression gate: every gated table and raw row must be byte-identical
// whether cells run serially or eight-wide, and whether the run starts cold
// or entirely from a warm on-disk cache — where every cell must hit.
func TestTablesDeterministicAcrossJobsAndCache(t *testing.T) {
	dir := t.TempDir()
	ref := renderTables(t, engineWith(t, 1, ""))

	parallel := renderTables(t, engineWith(t, 8, dir)) // also populates dir
	for name, want := range ref {
		if got := parallel[name]; got != want {
			t.Errorf("%s: jobs=8 table differs from jobs=1:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", name, want, got)
		}
	}

	warmEng := engineWith(t, 8, dir)
	warm := renderTables(t, warmEng)
	for name, want := range ref {
		if got := warm[name]; got != want {
			t.Errorf("%s: warm-cache table differs from cold:\n--- cold ---\n%s--- warm ---\n%s", name, want, got)
		}
	}
	if st := warmEng.Stats(); st.CacheHits != st.Cells {
		t.Errorf("warm-cache run hit %d of %d cells, want all", st.CacheHits, st.Cells)
	}
}

// TestCrossExperimentCacheSharing checks that content-identical cells
// submitted by different experiments are simulated once: Fig. 13's baseline
// and Jukebox configurations are the same cells Fig. 10 already measured.
func TestCrossExperimentCacheSharing(t *testing.T) {
	eng := engineWith(t, 4, "")
	opt := detOpt
	opt.Engine = eng

	if _, err := Performance(opt, cpu.SkylakeConfig(), core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if before.CacheHits != 0 {
		t.Fatalf("unexpected hits before Fig13: %+v", before)
	}
	if _, err := Fig13(opt); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	// Fig13 submits baseline and Jukebox cells for each of the two functions
	// that Performance already measured: at least 4 hits.
	if got := after.CacheHits - before.CacheHits; got < 4 {
		t.Errorf("Fig13 reused %d cached cells, want >= 4", got)
	}
}

// TestPrewarmDeterministicAcrossJobs gates the predictive pre-warm sweep:
// forecaster state (histograms, EWMA), the pre-warm ledger and the
// readiness-tier clocks all accumulate inside each traffic cell, so a
// worker-order or cache-order dependence anywhere in the prediction path
// shows up as a byte difference between a serial and an eight-wide run. One
// function keeps the 40-cell sweep affordable; the raw rows are compared
// unrounded.
func TestPrewarmDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full pre-warm sweep twice; skipped in -short mode")
	}
	opt := detOpt
	opt.Functions = []string{"Auth-G"}

	render := func(jobs int) (string, string) {
		o := opt
		o.Engine = engineWith(t, jobs, "")
		r, err := Prewarm(o)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table().String(), fmt.Sprintf("%+v", r)
	}

	serialTab, serialRows := render(1)
	wideTab, wideRows := render(8)
	if wideTab != serialTab {
		t.Errorf("prewarm table differs across jobs:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", serialTab, wideTab)
	}
	if wideRows != serialRows {
		t.Errorf("prewarm raw rows differ across jobs (table matched: rounding hid the drift)")
	}
}
