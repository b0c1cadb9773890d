package analysis

import (
	"strings"
	"testing"
)

func TestMapIterFixture(t *testing.T)     { runFixture(t, MapIter, "mapiter") }
func TestSeedHygieneFixture(t *testing.T) { runFixture(t, SeedHygiene, "seedhygiene") }
func TestCfgValidateFixture(t *testing.T) { runFixture(t, CfgValidate, "cfgvalidate") }
func TestFloatEqFixture(t *testing.T)     { runFixture(t, FloatEq, "floateq") }
func TestStatRegFixture(t *testing.T)     { runFixture(t, StatReg, "statreg") }

// TestCompactRegression pins the PR 4 vm.AddressSpace.Compact bug as a
// fixture: the pre-fix range-over-page-table shape must be flagged and the
// shipped collect-then-sort fix must pass. The mapiter fixture's want
// comments already encode this; here we assert it independently so the
// regression does not silently vanish if the fixture is edited.
func TestCompactRegression(t *testing.T) {
	pkg, err := LoadDir("testdata/src/mapiter", "mapiter")
	if err != nil {
		t.Fatalf("load mapiter fixture: %v", err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{MapIter})
	if err != nil {
		t.Fatalf("run mapiter: %v", err)
	}
	var preFixFlagged bool
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "compact.go") {
			continue
		}
		if strings.Contains(d.Message, "as.table") {
			preFixFlagged = true
			continue
		}
		t.Errorf("unexpected diagnostic in compact.go: %v", d)
	}
	if !preFixFlagged {
		t.Error("mapiter did not flag the pre-fix Compact loop (range over page table with stateful Alloc in the body)")
	}
}

func TestWaiverReason(t *testing.T) {
	cases := []struct {
		comment   string
		directive string
		waives    bool
	}{
		{"//lukewarm:ordered keys reduced to a sum", "ordered", true},
		{"//lukewarm:ordered", "ordered", false},         // bare: no reason
		{"//lukewarm:ordered   ", "ordered", false},      // whitespace-only reason
		{"//lukewarm:orderedX reason", "ordered", false}, // not the directive
		{"//lukewarm:seed reason", "ordered", false},     // different directive
		{"// lukewarm:ordered reason", "ordered", false}, // space breaks the marker
		{"//lukewarm:wallclock telemetry only", "wallclock", true},
	}
	for _, c := range cases {
		reason, ok := waiverReason(c.comment, c.directive)
		waives := ok && strings.TrimSpace(reason) != ""
		if waives != c.waives {
			t.Errorf("waiverReason(%q, %q): waives=%v, want %v", c.comment, c.directive, waives, c.waives)
		}
	}
}

func TestScopes(t *testing.T) {
	if !resultProducing("lukewarm/internal/vm") || !resultProducing("fixturepkg") {
		t.Error("vm and fixture packages must be in mapiter/statreg scope")
	}
	if resultProducing("lukewarm/internal/trace") {
		t.Error("trace is not a result-producing package")
	}
	if !simulation("lukewarm/internal/core") || !simulation("fixturepkg") {
		t.Error("core and fixture packages must be in simulation scope")
	}
	if simulation("lukewarm/cmd/lukewarm") || simulation("lukewarm/internal/analysis") {
		t.Error("cmd and the linter itself are outside simulation scope")
	}
}

// TestAllHaveFailingFixtures asserts every analyzer in the suite produces at
// least one diagnostic on its own fixture — an analyzer whose fixture never
// fires is dead enforcement.
func TestAllHaveFailingFixtures(t *testing.T) {
	fixtures := map[string]string{
		"mapiter":     "mapiter",
		"seedhygiene": "seedhygiene",
		"cfgvalidate": "cfgvalidate",
		"floateq":     "floateq",
		"statreg":     "statreg",
	}
	for _, a := range All() {
		fixture, ok := fixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture", a.Name)
			continue
		}
		pkg, err := LoadDir("testdata/src/"+fixture, fixture)
		if err != nil {
			t.Fatalf("load %s: %v", fixture, err)
		}
		diags, err := Run([]*Package{pkg}, []*Analyzer{a})
		if err != nil {
			t.Fatalf("run %s: %v", a.Name, err)
		}
		if len(diags) == 0 {
			t.Errorf("analyzer %s produced no diagnostics on its fixture", a.Name)
		}
	}
}
