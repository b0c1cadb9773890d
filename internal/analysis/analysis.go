// Package analysis is lukewarm's static-enforcement suite: a set of custom
// analyzers that lift the repository's determinism and configuration-hygiene
// invariants from dynamic checks (golden-figure gates, differential oracles)
// to `go vet`-time errors.
//
// The framework is deliberately shaped like golang.org/x/tools/go/analysis —
// an Analyzer is a named Run function over a type-checked Pass — but is
// self-contained on the standard library (go/ast, go/types, go/importer), so
// the module keeps its zero-dependency property and the linter builds in a
// hermetic environment. Should the tree ever vendor x/tools, each analyzer's
// Run body ports over unchanged.
//
// The five analyzers and the bug class each front-runs:
//
//	mapiter     — range over a map in result-producing code; front-runs the
//	              golden determinism gates (the PR 4 vm.AddressSpace.Compact
//	              frame-assignment bug was exactly this class).
//	seedhygiene — global math/rand sources, constant RNG seeds, wall-clock
//	              reads; front-runs replay bit-identity and cache-key drift.
//	cfgvalidate — exported *Config structs without a Validate() error that
//	              wraps cfgerr.ErrBadConfig and is actually called.
//	floateq     — ==/!= on floats in simulation code; front-runs tolerance
//	              drift in golden tables (use internal/stats helpers).
//	statreg     — result/stats struct fields unreachable from their String/
//	              CSV emitters; front-runs silently-dropped table columns.
//
// Intentional exceptions carry a waiver comment on the flagged line or the
// line above, with a mandatory reason:
//
//	//lukewarm:ordered    <reason>   (mapiter)
//	//lukewarm:seed       <reason>   (seedhygiene, rand)
//	//lukewarm:wallclock  <reason>   (seedhygiene, time)
//	//lukewarm:novalidate <reason>   (cfgvalidate)
//	//lukewarm:floateq    <reason>   (floateq)
//	//lukewarm:nostat     <reason>   (statreg)
//
// A waiver without a reason does not waive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Name appears in diagnostics, Doc in -help
// output, and Run is invoked once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an analyzer, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog lists every package loaded in this run (including the one under
	// analysis), for the few whole-program checks (cfgvalidate's
	// "Validate is actually called" rule).
	Prog []*Package

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, SeedHygiene, CfgValidate, FloatEq, StatReg}
}

// Run applies each analyzer to each package and returns the findings sorted
// by position. Packages whose path the analyzer's scope rejects are handled
// inside the analyzers themselves (scope is part of the invariant).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      pkgs,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ---------------------------------------------------------------------------
// Package scopes.
//
// Fixture packages (anything outside the lukewarm module path) are always in
// scope, so analysistest fixtures exercise every rule without masquerading as
// real package paths.

const modulePath = "lukewarm"

// resultPkgs are the packages whose outputs feed rendered tables, golden
// snapshots, or cache keys: the determinism surface.
var resultPkgs = map[string]bool{
	modulePath + "/internal/vm":          true,
	modulePath + "/internal/mem":         true,
	modulePath + "/internal/cpu":         true,
	modulePath + "/internal/pif":         true,
	modulePath + "/internal/serverless":  true,
	modulePath + "/internal/sched":       true,
	modulePath + "/internal/cluster":     true,
	modulePath + "/internal/experiments": true,
	modulePath + "/internal/runner":      true,
	modulePath + "/internal/stats":       true,
	modulePath + "/internal/program":     true,
	modulePath + "/internal/reap":        true,
	modulePath + "/internal/core":        true,
	modulePath + "/internal/predict":     true,
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// resultProducing reports whether pkg's iteration order can reach a result
// table or cache key.
func resultProducing(path string) bool {
	if !inModule(path) {
		return true // fixtures
	}
	return resultPkgs[path]
}

// simulation reports whether pkg is part of the simulated stack (everything
// under internal/ except this linter). The CLI and examples sit outside: they
// are the telemetry allowlist where wall-clock reads are legitimate.
func simulation(path string) bool {
	if !inModule(path) {
		return true // fixtures
	}
	return strings.HasPrefix(path, modulePath+"/internal/") &&
		path != modulePath+"/internal/analysis" &&
		!strings.HasPrefix(path, modulePath+"/internal/analysis/")
}

// ---------------------------------------------------------------------------
// Waivers.

// waived reports whether pos carries a `//lukewarm:<directive> <reason>`
// waiver: a comment on the same line or the line directly above. The reason
// is mandatory — a bare directive does not waive.
func (p *Pass) waived(pos token.Pos, directive string) bool {
	position := p.Fset.Position(pos)
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename != position.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := waiverReason(c.Text, directive)
				if !ok || strings.TrimSpace(reason) == "" {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				if line == position.Line || line == position.Line-1 {
					return true
				}
			}
		}
	}
	return false
}

// WaiverReason is the exported face of waiverReason: the perf sub-package
// reuses the directive parser for its `//lukewarm:hotpath` annotations so the
// grammar stays in one place.
func WaiverReason(comment, directive string) (string, bool) {
	return waiverReason(comment, directive)
}

// Simulation is the exported face of simulation, for the perf sub-package's
// scope checks.
func Simulation(path string) bool {
	return simulation(path)
}

// waiverReason extracts the reason from a `//lukewarm:<directive> <reason>`
// comment, reporting whether the comment is that directive at all.
func waiverReason(comment, directive string) (string, bool) {
	rest, ok := strings.CutPrefix(comment, "//lukewarm:"+directive)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //lukewarm:orderedX
	}
	return rest, true
}

// ---------------------------------------------------------------------------
// Small shared type helpers.

// isMap reports whether t's core type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether t's underlying type is an integer type.
func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// pkgFunc resolves a call expression to (package path, function name) when it
// is a direct call of a package-level function, e.g. time.Now() or
// rand.Intn(n). It sees through parenthesization but not through method
// values or locals.
func (p *Pass) pkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	obj := p.TypesInfo.Uses[sel.Sel]
	fn, fnOK := obj.(*types.Func)
	if !fnOK || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, sigOK := fn.Type().(*types.Signature); !sigOK || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// callFree reports whether expr contains no function or method calls (type
// conversions are allowed — they cannot carry hidden state).
func (p *Pass) callFree(expr ast.Expr) bool {
	free := true
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, tvOK := p.TypesInfo.Types[call.Fun]; tvOK && tv.IsType() {
			return true // conversion
		}
		free = false
		return false
	})
	return free
}
