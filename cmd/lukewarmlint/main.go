// Command lukewarmlint is the multichecker for lukewarm's static-enforcement
// suite (internal/analysis): the determinism/configuration analyzers plus the
// perf-invariant suite (internal/analysis/perf) that holds annotated hot
// paths to their declared compiler-verified invariants — the hotdirective
// grammar check and the perfgate compiler gate.
//
// Usage:
//
//	lukewarmlint [-list] [packages]
//
// Packages default to ./... and accept any `go list` pattern; run it from
// the module root (type information is resolved from source through the
// module's own `go list`, and the perf gate's diagnostic rebuild runs from
// the current directory). Exit status: 0 clean, 1 findings, 2 usage or load
// failure. CI runs `make lint` (gofmt, `go vet` and this command) as a hard
// gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lukewarm/internal/analysis"
	"lukewarm/internal/analysis/perf"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	analyzers := append(analysis.All(), perf.Analyzers()...)
	const perfgate = "verifies //lukewarm:hotpath invariants against go build -gcflags=" +
		"'-m=2 -d=ssa/check_bce/debug=1' diagnostics"
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lukewarmlint [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", "perfgate", perfgate)
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "perfgate", perfgate)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukewarmlint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukewarmlint:", err)
		os.Exit(2)
	}
	gate, err := perf.CompileCheck(".", pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukewarmlint:", err)
		os.Exit(2)
	}
	diags = append(diags, gate...)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lukewarmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
