// Package perf is lukewarm's perf-invariant suite: a gcassert-style static
// gate over the timing core's hot paths. A function annotated
//
//	//lukewarm:hotpath <invariant>[,<invariant>...] <reason>
//
// declares compiler-verifiable performance invariants — the annotation sits
// on the line directly above the declaration (the last line of its doc
// comment) and the reason, like every lukewarm directive, is mandatory:
//
//	noalloc   — the compiler reports no heap allocation inside the function
//	            (no "escapes to heap"/"moved to heap" diagnostic in its line
//	            range; constant-string escapes, which are static data, are
//	            excluded)
//	noescape  — no local is moved to the heap ("moved to heap" only; a
//	            weaker guarantee than noalloc that still rules out hidden
//	            per-call boxing of locals)
//	inline    — the function stays inlinable ("can inline" must be reported;
//	            a "cannot inline" verdict fails with the compiler's reason)
//	nobce     — every bounds check is eliminated (no "Found IsInBounds" /
//	            "Found IsSliceInBounds" from -d=ssa/check_bce)
//
// Two layers enforce the annotations:
//
//	hotdirective — grammar: unknown directive names, unknown invariants,
//	               missing reasons, misplaced or duplicated annotations.
//	CompileCheck — the compiler-diagnostic gate: recompiles annotated
//	               packages with `-gcflags=-m=2 -d=ssa/check_bce/debug=1`
//	               and verifies each declared invariant against the escape,
//	               inline, and bounds-check output.
//
// The compiler is the one static witness of what allocates, inlines or keeps
// a bounds check. Unannotated callees are held by runtime witnesses instead:
// the testing.AllocsPerRun pins in the hot packages measure the whole call
// tree, including the interface and cross-package calls an AST pass cannot
// follow.
package perf

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"lukewarm/internal/analysis"
)

// invariants maps each hotpath invariant to its one-line meaning (used in
// diagnostics and -list output).
var invariants = map[string]string{
	"noalloc":  "no heap allocation in the function body",
	"noescape": "no local variable moved to the heap",
	"inline":   "function remains inlinable",
	"nobce":    "all bounds checks eliminated",
}

// invariantNames is the stable order for messages.
var invariantNames = []string{"noalloc", "noescape", "inline", "nobce"}

// knownDirectives is every `//lukewarm:<name>` the tree understands; anything
// else is a typo that would otherwise silently waive nothing.
var knownDirectives = map[string]bool{
	"ordered":    true,
	"seed":       true,
	"wallclock":  true,
	"novalidate": true,
	"floateq":    true,
	"nostat":     true,
	"hotpath":    true,
}

// knownDirectiveList renders knownDirectives, sorted, for the unknown-name
// diagnostic.
var knownDirectiveList = func() string {
	names := make([]string, 0, len(knownDirectives))
	for name := range knownDirectives {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}()

// Hotpath is one well-formed annotation paired with its function.
type Hotpath struct {
	Decl       *ast.FuncDecl
	Name       string // rendered name, e.g. "(*SetAssoc).findWay"
	Pos        token.Pos
	File       string // filename as recorded in the FileSet
	StartLine  int    // first line of the declaration
	EndLine    int    // last line of the body
	Invariants map[string]bool
	Reason     string
}

// reportFunc receives grammar problems during scanning; nil consumers
// (CompileCheck) skip malformed annotations silently and leave the reporting
// to the hotdirective analyzer.
type reportFunc func(pos token.Pos, format string, args ...any)

// hotpathsIn scans the files' comments and pairs each well-formed
// //lukewarm:hotpath annotation with the function it documents. An
// annotation binds to a function when it appears in the declaration's doc
// comment group; it must be the group's last line so it sits directly above
// the `func` keyword.
func hotpathsIn(fset *token.FileSet, files []*ast.File, report reportFunc) []*Hotpath {
	var hot []*Hotpath
	for _, f := range files {
		consumed := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			seen := 0
			for i, c := range fd.Doc.List {
				rest, ok := analysis.WaiverReason(c.Text, "hotpath")
				if !ok {
					continue
				}
				consumed[c] = true
				seen++
				if seen > 1 {
					if report != nil {
						report(c.Pos(), "duplicate //lukewarm:hotpath annotation on %s: declare all invariants in one comma-separated list", funcName(fd))
					}
					continue
				}
				if i != len(fd.Doc.List)-1 {
					if report != nil {
						report(c.Pos(), "//lukewarm:hotpath must be the last line of %s's doc comment, directly above the declaration", funcName(fd))
					}
					continue
				}
				h := parseHotpath(fset, fd, c, rest, report)
				if h != nil {
					hot = append(hot, h)
				}
			}
		}
		// Orphans: hotpath comments not attached to any function's doc group
		// (inside bodies, above non-function declarations, or separated from
		// the declaration by a blank line).
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := analysis.WaiverReason(c.Text, "hotpath"); !ok || consumed[c] {
					continue
				}
				if report != nil {
					report(c.Pos(), "//lukewarm:hotpath must sit directly above a function declaration")
				}
			}
		}
	}
	return hot
}

// stripWant drops a trailing `// want "..."` expectation marker so the
// analyzer's own fixtures can assert diagnostics on directive lines (a
// directive otherwise consumes the rest of its line as the reason). Real
// reasons never contain the marker.
func stripWant(s string) string {
	if i := strings.Index(s, "// want "); i >= 0 {
		return s[:i]
	}
	return s
}

// parseHotpath validates one annotation's invariant list and reason,
// returning nil (after reporting) when malformed.
func parseHotpath(fset *token.FileSet, fd *ast.FuncDecl, c *ast.Comment, rest string, report reportFunc) *Hotpath {
	fields := strings.Fields(stripWant(rest))
	if len(fields) == 0 {
		if report != nil {
			report(c.Pos(), "//lukewarm:hotpath on %s is missing its invariant list (%s) and reason", funcName(fd), strings.Join(invariantNames, ", "))
		}
		return nil
	}
	declared := map[string]bool{}
	ok := true
	for _, inv := range strings.Split(fields[0], ",") {
		if _, known := invariants[inv]; !known {
			if report != nil {
				report(c.Pos(), "unknown hotpath invariant %q on %s (known: %s)", inv, funcName(fd), strings.Join(invariantNames, ", "))
			}
			ok = false
			continue
		}
		declared[inv] = true
	}
	reason := strings.TrimSpace(strings.Join(fields[1:], " "))
	if reason == "" {
		if report != nil {
			report(c.Pos(), "//lukewarm:hotpath on %s requires a reason after the invariant list; a bare annotation does not gate", funcName(fd))
		}
		return nil
	}
	if !ok || len(declared) == 0 {
		return nil
	}
	return &Hotpath{
		Decl:       fd,
		Name:       funcName(fd),
		Pos:        c.Pos(),
		File:       fset.Position(fd.Pos()).Filename,
		StartLine:  fset.Position(fd.Pos()).Line,
		EndLine:    fset.Position(fd.End()).Line,
		Invariants: declared,
		Reason:     reason,
	}
}

// funcName renders a declaration's name with its receiver, matching how the
// compiler's -m output spells methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		return fmt.Sprintf("(%s).%s", recv, fd.Name.Name)
	}
	return fmt.Sprintf("%s.%s", recv, fd.Name.Name)
}

// HotDirective validates every lukewarm directive in simulation packages:
// unknown directive names (a typo'd waiver waives nothing), reasonless
// waivers, and the hotpath grammar (placement, invariant spelling, mandatory
// reason, duplicates).
var HotDirective = &analysis.Analyzer{
	Name: "hotdirective",
	Doc:  "validates //lukewarm: directive grammar (names, reasons, hotpath placement)",
	Run:  runHotDirective,
}

func runHotDirective(pass *analysis.Pass) error {
	if !analysis.Simulation(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lukewarm:")
				if !ok {
					continue
				}
				name, tail, _ := strings.Cut(rest, " ")
				name, _, _ = strings.Cut(name, "\t")
				if !knownDirectives[name] {
					pass.Reportf(c.Pos(), "unknown lukewarm directive %q; this comment waives nothing (known: %s)", name, knownDirectiveList)
					continue
				}
				if name != "hotpath" && strings.TrimSpace(stripWant(tail)) == "" {
					pass.Reportf(c.Pos(), "//lukewarm:%s requires a reason; a bare directive does not waive", name)
				}
			}
		}
	}
	// hotpath placement/grammar, reported at the annotation's position.
	hotpathsIn(pass.Fset, pass.Files, pass.Reportf)
	return nil
}

// Analyzers returns the perf suite's pure static passes (the compiler gate,
// CompileCheck, runs separately: it needs the go tool).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{HotDirective}
}
