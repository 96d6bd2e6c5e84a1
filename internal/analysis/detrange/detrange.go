// Package detrange implements the thermolint analyzer that flags `for range`
// over maps in simulator packages.
//
// Go deliberately randomizes map iteration order, so any map range whose
// body is order-sensitive makes simulation output depend on the run — which
// breaks the bit-for-bit reproducibility the Thermometer evaluation
// methodology requires (identical seeds must yield identical victim choices
// and telemetry output; see DESIGN.md, "Determinism & static analysis").
//
// A map range is accepted without complaint when its body is provably
// order-insensitive: a commutative reduction (integer +=, -=, |=, &=, ^=,
// ++/--, possibly under pure `if` conditions) or a pure delete-filter. For
// everything else, iterate detmap.SortedKeys(m) or suppress the finding
// with `//lint:allow detrange <reason>`.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"thermometer/internal/analysis"
)

// Scope selects the package import paths subject to the determinism
// contract. Tests override it to target testdata packages.
var Scope = regexp.MustCompile(`^thermometer/internal/(attribution|belady|btb|policy|core|trace|profile|replay|metrics|telemetry|workload|prefetch|cache|bpred|experiments)(/|$)`)

// Analyzer is the detrange pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc: "flags range over maps in simulator packages unless the body is " +
		"provably order-insensitive; map iteration order is randomized and " +
		"breaks reproducible simulation",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !Scope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if orderInsensitiveBody(pass, rs.Body.List) {
			return true
		}
		pass.Reportf(rs.For,
			"range over map %s has nondeterministic iteration order; iterate detmap.SortedKeys(%s) or suppress with //lint:allow detrange <reason>",
			types.ExprString(rs.X), types.ExprString(rs.X))
		return true
	})
	return nil
}

// orderInsensitiveBody reports whether every statement commutes across
// iterations, so the loop's effect is independent of visit order.
func orderInsensitiveBody(pass *analysis.Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *analysis.Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return true
	case *ast.IncDecStmt:
		// x++ / x-- on integers commutes.
		return isIntegerLvalue(pass, s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Integer accumulation commutes; float accumulation does not
			// (addition is not associative), so isIntegerLvalue rejects it.
			return len(s.Lhs) == 1 && isIntegerLvalue(pass, s.Lhs[0]) && isPure(s.Rhs[0])
		case token.DEFINE:
			// Local bindings of pure expressions (e.g. `v, ok := m[k]`).
			for _, r := range s.Rhs {
				if !isPure(r) {
					return false
				}
			}
			return true
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !orderInsensitiveStmt(pass, s.Init) {
			return false
		}
		if !isPure(s.Cond) {
			return false
		}
		if !orderInsensitiveBody(pass, s.Body.List) {
			return false
		}
		if s.Else != nil {
			return orderInsensitiveStmt(pass, s.Else)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitiveBody(pass, s.List)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		// delete(m, k): deleting a distinct key per iteration commutes.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "delete" {
			return false
		}
		if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
			return false
		}
		for _, arg := range call.Args {
			if !isPure(arg) {
				return false
			}
		}
		return true
	}
	return false
}

// isIntegerLvalue reports whether e is an addressable expression of integer
// type (the only element type for which accumulation commutes exactly).
func isIntegerLvalue(pass *analysis.Pass, e ast.Expr) bool {
	if !isPure(e) {
		return false
	}
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isPure conservatively reports whether evaluating e has no side effects:
// no calls (except the statements handled above), sends, or function
// literals anywhere inside.
func isPure(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.FuncLit, *ast.UnaryExpr:
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op != token.ARROW {
				return true // &x, -x, !x etc. are fine; only <-ch is impure
			}
			pure = false
			return false
		}
		return true
	})
	return pure
}
