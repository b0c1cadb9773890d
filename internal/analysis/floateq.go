package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags `==` and `!=` between floating-point operands in simulation
// code. Float arithmetic accumulates rounding that varies with evaluation
// order, so an exact comparison in the stack silently encodes an assumption
// about that order; the golden-figure gates hold every table cell to an
// exact match and would show a flipped comparison only as an unexplained
// figure change. Use the tolerance helpers in internal/stats
// (stats.ApproxEqual / stats.Near), or waive a deliberate exact comparison
// (sentinel zeros, integer-valued identities) with
// `//lukewarm:floateq <reason>`.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flags ==/!= on floats in simulation code; use internal/stats tolerance helpers",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) error {
	if !simulation(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || bin.Op != token.EQL && bin.Op != token.NEQ {
				return true
			}
			x := pass.TypesInfo.Types[bin.X]
			y := pass.TypesInfo.Types[bin.Y]
			if !isFloat(x.Type) && !isFloat(y.Type) {
				return true
			}
			// An untyped constant operand whose value is exact at the
			// comparison (for example a switch over enum-like codes) is
			// still float equality; only both-constant comparisons are
			// compile-time facts.
			if x.Value != nil && y.Value != nil {
				return true
			}
			if pass.waived(bin.Pos(), "floateq") {
				return true
			}
			pass.Reportf(bin.Pos(), "exact float comparison (%s %s %s): use "+
				"stats.ApproxEqual/stats.Near, or waive with //lukewarm:floateq <reason>",
				types.ExprString(bin.X), bin.Op, types.ExprString(bin.Y))
			return true
		})
	}
	return nil
}
