package perf

import (
	"testing"

	"lukewarm/internal/analysis"
)

// TestRepoPerfClean mirrors the base suite's TestRepoLintsClean for the perf
// suite: the directive grammar check and the compiler-diagnostic gate over
// the whole module must report nothing — i.e. `go run ./cmd/lukewarmlint
// ./...` stays exit 0. It also pins the acceptance floor of eight
// annotated hot-path functions across the timing-core packages.
func TestRepoPerfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree source type-check plus diagnostic rebuild; skipped in -short")
	}
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := analysis.Run(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("run perf analyzers: %v", err)
	}
	gate, err := CompileCheck("../../..", pkgs)
	if err != nil {
		t.Fatalf("compiler gate: %v", err)
	}
	for _, d := range append(diags, gate...) {
		t.Errorf("repo violates its perf invariants: %v", d)
	}

	total := 0
	perPkg := map[string]int{}
	for _, pkg := range pkgs {
		n := len(hotpathsIn(pkg.Fset, pkg.Syntax, nil))
		total += n
		if n > 0 {
			perPkg[pkg.Path] += n
		}
	}
	if total < 8 {
		t.Errorf("want at least 8 //lukewarm:hotpath annotations across the tree, found %d (%v)", total, perPkg)
	}
	for _, p := range []string{"mem", "vm", "program", "cpu", "serverless"} {
		if perPkg["lukewarm/internal/"+p] == 0 {
			t.Errorf("package internal/%s carries no hotpath annotations", p)
		}
	}
}
