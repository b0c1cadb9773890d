package perf

import (
	"path/filepath"
	"testing"

	"lukewarm/internal/analysis"
	"lukewarm/internal/analysis/atest"
)

// runFixture mirrors the base suite's fixture runner: load
// testdata/src/<fixture>, run one analyzer, and match the diagnostics
// against the fixture's `// want "regexp"` comments.
func runFixture(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := analysis.LoadDir(dir, fixture)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, fixture, err)
	}
	flat := make([]atest.Diag, 0, len(diags))
	for _, d := range diags {
		flat = append(flat, atest.Diag{
			File:    filepath.Base(d.Pos.Filename),
			Line:    d.Pos.Line,
			Message: d.Message,
		})
	}
	atest.Check(t, dir, flat)
}

func TestHotDirectiveFixture(t *testing.T) { runFixture(t, HotDirective, "hotdirective") }
