package perf

import (
	"path/filepath"
	"strings"
	"testing"

	"lukewarm/internal/analysis"
)

// moduleRoot is the repository root relative to this package: the directory
// CompileCheck's diagnostic `go build` runs from.
const moduleRoot = "../../.."

func loadCompiled(t *testing.T, name string) []*analysis.Package {
	t.Helper()
	pkg, err := analysis.LoadDir(filepath.Join("testdata", "compiled", name), name)
	if err != nil {
		t.Fatalf("load compiled fixture %s: %v", name, err)
	}
	return []*analysis.Package{pkg}
}

// TestCompileCheckViolations plants one violation per invariant kind and
// asserts the compiler gate reports each: a deliberate escape fails noalloc
// and noescape, a data-dependent index fails nobce, a go:noinline function
// fails inline with the compiler's own reason, and a slice stored in an
// interface field (implicit boxing) fails noalloc.
func TestCompileCheckViolations(t *testing.T) {
	diags, err := CompileCheck(moduleRoot, loadCompiled(t, "violate"))
	if err != nil {
		t.Fatalf("CompileCheck: %v", err)
	}
	wants := []string{
		"hotpath escapes declares noalloc, but the compiler reports",
		"hotpath escapes declares noescape, but the compiler reports",
		"hotpath gather declares nobce, but a bounds check survives",
		"hotpath heavy declares inline, but the compiler reports",
		"hotpath (*core).bind declares noalloc, but the compiler reports",
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing expected violation containing %q; got:\n%s", w, dump(diags))
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("want exactly %d findings, got %d:\n%s", len(wants), len(diags), dump(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "perfgate" {
			t.Errorf("finding attributed to %q, want perfgate", d.Analyzer)
		}
	}
}

// TestCompileCheckClean compiles the all-invariants-hold fixture and expects
// silence.
func TestCompileCheckClean(t *testing.T) {
	diags, err := CompileCheck(moduleRoot, loadCompiled(t, "clean"))
	if err != nil {
		t.Fatalf("CompileCheck: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("clean fixture produced findings:\n%s", dump(diags))
	}
}

// TestCompileCheckNoAnnotations short-circuits without invoking the compiler.
func TestCompileCheckNoAnnotations(t *testing.T) {
	diags, err := CompileCheck(moduleRoot, nil)
	if err != nil || diags != nil {
		t.Fatalf("no packages: diags=%v err=%v", diags, err)
	}
}

func dump(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
