package experiments

import (
	"strings"
	"testing"
)

// schedTestOptions keeps the sweep tractable for CI while preserving the
// properties the experiment exists to show: enough co-resident functions to
// saturate the placement sweep's cores and enough invocations per function
// for the hybrid keep-alive policy to get past its learning phase.
func schedTestOptions() Options {
	return Options{
		Functions: []string{"Auth-G", "Pay-N", "Email-P", "ProdL-G", "Curr-N", "Geo-G"},
		Warmup:    1,
		Measure:   4,
		Audit:     true,
	}
}

func TestSchedPlacementSweep(t *testing.T) {
	r, err := Sched(schedTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(schedShapes) * len(schedPlacers); len(r.Placement) != want {
		t.Fatalf("placement sweep has %d rows, want %d", len(r.Placement), want)
	}
	for _, row := range r.Placement {
		if row.T.Served == 0 {
			t.Errorf("%s/%s served nothing", row.Shape, row.Policy)
		}
		if row.T.CPI.Mean() <= 0 {
			t.Errorf("%s/%s has non-positive CPI %g", row.Shape, row.Policy, row.T.CPI.Mean())
		}
	}
	// The acceptance criterion: sticky placement recovers warmth the
	// earliest-available baseline destroys by scattering a function's
	// invocations across cores.
	if d := r.CPIDeltaPct("StickyAffinity"); d <= 0 {
		t.Errorf("StickyAffinity geomean CPI delta vs EarliestAvailable = %+.2f%%, want a win", d)
	}
	best, delta := r.BestPolicyCPIDeltaPct()
	if best == "" || delta <= 0 {
		t.Errorf("headline best policy %q delta %+.2f%%, want a positive headline", best, delta)
	}
	// JukeboxAware exists to cut Bind churn: its rebind count must not
	// exceed the baseline's on any shape.
	rebinds := func(policy, shape string) int {
		for _, row := range r.Placement {
			if row.Policy == policy && row.Shape == shape {
				return row.T.JukeboxRebinds
			}
		}
		t.Fatalf("missing placement row %s/%s", policy, shape)
		return 0
	}
	for _, shape := range schedShapes {
		if jb, ea := rebinds("JukeboxAware", shape.String()), rebinds("EarliestAvailable", shape.String()); jb > ea {
			t.Errorf("%s: JukeboxAware rebinds %d > EarliestAvailable %d", shape, jb, ea)
		}
	}
}

func TestSchedKeepAliveSweep(t *testing.T) {
	r, err := Sched(schedTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(schedShapes) * len(schedKeepAlives); len(r.KeepAlive) != want {
		t.Fatalf("keep-alive sweep has %d rows, want %d", len(r.KeepAlive), want)
	}
	fixed, okF := r.keepAliveRow("diurnal", "FixedTimeout")
	hybrid, okH := r.keepAliveRow("diurnal", "HybridHistogram")
	noEvict, okN := r.keepAliveRow("diurnal", "NoEvict")
	if !okF || !okH || !okN {
		t.Fatal("keep-alive sweep missing diurnal rows")
	}
	// The acceptance criterion: under diurnal traffic the learned pre-warm
	// windows beat the fixed timeout on cold-start rate without spending
	// more instance-memory (resident ms per invocation).
	if hybrid.T.ColdStartRate() >= fixed.T.ColdStartRate() {
		t.Errorf("hybrid cold-start rate %.1f%% not below fixed %.1f%%",
			hybrid.T.ColdStartRate()*100, fixed.T.ColdStartRate()*100)
	}
	if h, f := hybrid.T.ResidentMsPerServed(), fixed.T.ResidentMsPerServed(); h > f {
		t.Errorf("hybrid resident %.0f ms/inv exceeds fixed budget %.0f ms/inv", h, f)
	}
	// NoEvict is the zero-cold-start, unbounded-memory reference point.
	if noEvict.T.ColdStarts != 0 {
		t.Errorf("NoEvict cold-started %d times", noEvict.T.ColdStarts)
	}
	if noEvict.T.ResidentMsPerServed() <= fixed.T.ResidentMsPerServed() {
		t.Errorf("NoEvict resident %.0f ms/inv not above fixed %.0f — sweep is not load-bearing",
			noEvict.T.ResidentMsPerServed(), fixed.T.ResidentMsPerServed())
	}
}

func TestSchedTablesRender(t *testing.T) {
	r, err := Sched(schedTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"placement":    r.Table().String(),
		"keep-alive":   r.KeepAliveTable().String(),
		"per-function": r.PerFuncTable().String(),
	} {
		if len(strings.Split(s, "\n")) < 4 {
			t.Errorf("%s table suspiciously short:\n%s", name, s)
		}
	}
	if !strings.Contains(r.Table().String(), "geomean") {
		t.Error("placement table missing geomean summary rows")
	}
	if !strings.Contains(r.PerFuncTable().String(), "Auth-G") {
		t.Error("per-function table missing suite functions")
	}
}
