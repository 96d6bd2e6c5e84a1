// Package orderedfloat implements the thermolint analyzer that keeps
// floating-point reductions in a deterministic order.
//
// Float addition does not commute in rounding: summing the same values in a
// different order produces a different last bit, which breaks the runner's
// contract that a sweep's output is byte-identical at any pool width. The
// analyzer flags `+=`/`-=` on float lvalues when the accumulation order is
// not fixed:
//
//   - inside a ForEach/forEach/SweepProgress callback or a go statement,
//     when the accumulator is captured from the enclosing scope (concurrent
//     workers race the reduction order);
//   - inside a range over a map (iteration order is randomized per run).
//
// The blessed pattern is the one the experiments package uses: parallel
// workers write into caller-indexed slots, and a serial loop in submission
// order does the float reduction afterwards.
package orderedfloat

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"thermometer/internal/analysis"
)

// Scope selects the import paths checked. Tests override it to target
// testdata packages.
var Scope = regexp.MustCompile(`^thermometer/internal/`)

// parallelCall matches callee names whose func-typed argument runs on
// worker goroutines.
var parallelCall = regexp.MustCompile(`(?i)^(foreach|sweepprogress)$`)

// Analyzer is the orderedfloat pass.
var Analyzer = &analysis.Analyzer{
	Name: "orderedfloat",
	Doc: "float accumulation in parallel callbacks, goroutines, or map " +
		"ranges has nondeterministic summation order; reduce serially over " +
		"indexed slots or sorted keys",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !Scope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	pass.InspectStack(func(n ast.Node, stack []ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || len(as.Lhs) != 1 {
			return true
		}
		if !isFloat(pass.TypeOf(as.Lhs[0])) {
			return true
		}
		root := rootIdent(as.Lhs[0])
		if root == nil {
			return true
		}
		if lit := capturedInParallel(pass, root, stack); lit != nil {
			pass.Reportf(as.Pos(),
				"float accumulation into captured %s inside a parallel callback or goroutine: summation order varies with scheduling; write into an indexed slot and reduce serially",
				root.Name)
			return true
		}
		if m := inMapRange(pass, stack); m != nil {
			pass.Reportf(as.Pos(),
				"float accumulation while ranging over map %s: iteration order is randomized, so the rounded sum differs run to run; iterate detmap.SortedKeys",
				types.ExprString(m))
		}
		return true
	})
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// rootIdent peels sums[j], s.total, (*p).x down to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// capturedInParallel returns the enclosing function literal that runs on a
// worker (an argument of ForEach/forEach/SweepProgress, or a go statement)
// when the accumulator is declared outside it — the racing-reduction shape.
func capturedInParallel(pass *analysis.Pass, root *ast.Ident, stack []ast.Node) *ast.FuncLit {
	obj := pass.Info.Uses[root]
	if obj == nil {
		return nil
	}
	for i := len(stack) - 1; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return nil // declared inside this literal: a local accumulator
		}
		if i == 0 {
			return nil
		}
		if parent, ok := stack[i-1].(*ast.CallExpr); ok {
			if parent.Fun == lit {
				// `go func(){...}()`: the literal IS the callee; the go
				// statement sits one level further up.
				if i >= 2 {
					if _, isGo := stack[i-2].(*ast.GoStmt); isGo {
						return lit
					}
				}
			} else if name := calleeName(parent); name != "" && parallelCall.MatchString(name) {
				return lit
			}
		}
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// inMapRange returns the ranged map expression when the statement sits in a
// map-range body within the same function (literals bound their own
// contexts).
func inMapRange(pass *analysis.Pass, stack []ast.Node) ast.Expr {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.FuncLit:
			return nil
		case *ast.RangeStmt:
			if t := pass.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					return s.X
				}
			}
		}
	}
	return nil
}
