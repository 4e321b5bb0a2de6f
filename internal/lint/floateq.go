package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatEqScope lists the module-relative package dirs in which direct
// float equality is forbidden: the numeric planner core, where two
// mathematically equal values rarely compare equal after different
// summation orders.
var floatEqScope = []string{
	"internal/core",
	"internal/energy",
	"internal/geom",
	"internal/tsp",
}

// FloatEq returns the floateq analyzer: no == or != between
// floating-point operands in the numeric planner packages. Exact
// comparison is occasionally correct (sentinel zeros, bitwise dedup of
// verbatim copies, incumbent-changed checks); such sites carry an
// //uavdc:allow floateq annotation saying why bit-equality is right
// there, and every other site compares with an explicit tolerance. Test
// files are exempt.
func FloatEq() *Analyzer {
	a := &Analyzer{
		Name: "floateq",
		Doc:  "forbid ==/!= between floats in the numeric planner packages; compare with a tolerance or annotate",
	}
	a.Run = func(pass *Pass) {
		inScope := false
		for _, dir := range floatEqScope {
			if pass.Pkg.Path == pass.Pkg.ModPath+"/"+dir {
				inScope = true
				break
			}
		}
		if !inScope {
			return
		}
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
					return true
				}
				tx, ty := info.Types[b.X], info.Types[b.Y]
				if tx.Value != nil && ty.Value != nil {
					return true // folded at compile time; no runtime hazard
				}
				if isFloat(tx.Type) || isFloat(ty.Type) {
					pass.Reportf(b.OpPos,
						"floating-point %s comparison; annotate why exact bit-equality is intended, or compare with an explicit tolerance",
						b.Op)
				}
				return true
			})
		}
	}
	return a
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (typed or untyped).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
