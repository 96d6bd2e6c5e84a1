// Package observernil implements the thermolint analyzer that enforces the
// telemetry observer contract: a nil *telemetry.Observer (or nil collector
// inside one) disables instrumentation, and the simulator pays exactly one
// pointer check per block for it. Every call to a probe method on such a
// possibly-nil value must therefore be dominated by a nil check — a missing
// guard is a latent panic on every untelemetered run.
//
// The analyzer flags calls whose receiver has a guarded pointer type unless
// one of these holds:
//
//   - the receiver is the enclosing method's receiver or a function
//     parameter (boundary functions document non-nil arguments; the guard
//     belongs at their call sites, where the value originates);
//   - the receiver is a local variable that is provably initialized from a
//     constructor call or composite literal on every assignment;
//   - the call is dominated by `recv != nil` (directly, via an if/else on
//     `recv == nil`, or via an earlier early-return `if recv == nil`).
package observernil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"thermometer/internal/analysis"
)

// GuardedTypes lists the pointer-to-type receivers whose methods require a
// dominating nil check, as "importpath.TypeName". Tests override it to
// target testdata types.
var GuardedTypes = []string{
	"thermometer/internal/telemetry.Observer",
	"thermometer/internal/telemetry.Registry",
	"thermometer/internal/telemetry.EpochSampler",
	"thermometer/internal/telemetry.Tracer",
	"thermometer/internal/core.observerState",
	"thermometer/internal/attribution.Recorder",
}

// Analyzer is the observernil pass.
var Analyzer = &analysis.Analyzer{
	Name: "observernil",
	Doc: "calls to telemetry observer probe methods must be dominated by a " +
		"nil check (nil observer = instrumentation disabled, one pointer " +
		"check per block)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	guarded := make(map[string]bool, len(GuardedTypes))
	for _, g := range GuardedTypes {
		guarded[g] = true
	}
	pass.InspectStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Method call only (not package-qualified function).
		if _, ok := pass.Info.Selections[sel]; !ok {
			return true
		}
		recv := sel.X
		tname, ok := guardedTypeName(pass, recv, guarded)
		if !ok {
			return true
		}
		if exemptReceiver(pass, recv, stack) {
			return true
		}
		if dominatedByNilCheck(recv, call, stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"call to (%s).%s on possibly-nil %s is not dominated by a nil check; guard with `if %s != nil` (observer contract: nil disables instrumentation)",
			tname, sel.Sel.Name, types.ExprString(recv), types.ExprString(recv))
		return true
	})
	return nil
}

// guardedTypeName reports whether recv's static type is a pointer to a
// guarded named type, returning the display name.
func guardedTypeName(pass *analysis.Pass, recv ast.Expr, guarded map[string]bool) (string, bool) {
	t := pass.TypeOf(recv)
	if t == nil {
		return "", false
	}
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if !guarded[full] {
		return "", false
	}
	short := named.Obj().Pkg().Name() + "." + named.Obj().Name()
	return "*" + short, true
}

// exemptReceiver implements the receiver/parameter/definitely-assigned
// exemptions. Non-ident receivers rooted in a call (constructor chaining)
// are exempt; field chains are not.
func exemptReceiver(pass *analysis.Pass, recv ast.Expr, stack []ast.Node) bool {
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj, ok := pass.Info.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		// A closure capturing an outer function's parameter or receiver
		// inherits its non-nil boundary contract, so check every enclosing
		// function, innermost first.
		outermost := ast.Node(nil)
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if isParamOrReceiver(pass, obj, stack[i]) {
					return true
				}
				outermost = stack[i]
			}
		}
		if outermost == nil {
			return false
		}
		return definitelyAssigned(pass, obj, outermost)
	case *ast.CallExpr:
		return true // telemetry.New(...).Report(...): constructor result
	case *ast.SelectorExpr:
		return false // field chain like obs.Epochs: needs its own guard
	default:
		return false
	}
}

func isParamOrReceiver(pass *analysis.Pass, obj *types.Var, fn ast.Node) bool {
	var recv *ast.FieldList
	var params *ast.FieldList
	switch f := fn.(type) {
	case *ast.FuncDecl:
		recv, params = f.Recv, f.Type.Params
	case *ast.FuncLit:
		params = f.Type.Params
	}
	for _, fl := range []*ast.FieldList{recv, params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if pass.Info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	return false
}

// definitelyAssigned reports whether every binding of obj inside fn is a
// constructor-shaped expression (address of a composite literal, a call, or
// new(...)), and the variable is never declared without an initializer.
func definitelyAssigned(pass *analysis.Pass, obj *types.Var, fn ast.Node) bool {
	sawAssign := false
	allNonNil := true
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if pass.Info.Defs[id] != obj && pass.Info.Uses[id] != obj {
					continue
				}
				sawAssign = true
				// Tuple assignment `a, b := f()`: one RHS call covers all.
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if !nonNilExpr(rhs) {
					allNonNil = false
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if pass.Info.Defs[id] != obj {
					continue
				}
				sawAssign = true
				if len(n.Values) == 0 {
					allNonNil = false // `var x *T` starts nil
				} else {
					for _, v := range n.Values {
						if !nonNilExpr(v) {
							allNonNil = false
						}
					}
				}
			}
		}
		return true
	})
	return sawAssign && allNonNil
}

func nonNilExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return true // constructors return non-nil by convention
	case *ast.UnaryExpr:
		return e.Op == token.AND // &T{...}
	case nil:
		return false
	default:
		return false
	}
}

// dominatedByNilCheck reports whether the call is dominated by a nil check
// of recv (matched structurally via go/types.ExprString).
func dominatedByNilCheck(recv ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	want := types.ExprString(recv)

	// Pattern 1: an enclosing `if recv != nil { ...call... }` (call in Body)
	// or `if recv == nil { ... } else { ...call... }` (call in Else).
	for i := len(stack) - 2; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		child := stack[i+1]
		if child == ifStmt.Body && condChecksNonNil(ifStmt.Cond, want) {
			return true
		}
		if child == ifStmt.Else && condChecksNil(ifStmt.Cond, want) {
			return true
		}
	}

	// Pattern 1b: short-circuit domination inside one expression:
	// `recv != nil && recv.M()` or `recv == nil || recv.M()`.
	for i := len(stack) - 2; i >= 0; i-- {
		bin, ok := stack[i].(*ast.BinaryExpr)
		if !ok {
			continue
		}
		if stack[i+1] != ast.Node(bin.Y) {
			continue
		}
		if bin.Op == token.LAND && condChecksNonNil(bin.X, want) {
			return true
		}
		if bin.Op == token.LOR && condChecksNil(bin.X, want) {
			return true
		}
	}

	// Pattern 2: an earlier early-exit guard in an enclosing block:
	//   if recv == nil { return }  (or continue/break/panic)
	for i := len(stack) - 2; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		containing := stack[i+1].(ast.Stmt)
		for _, s := range block.List {
			if s == containing {
				break
			}
			ifStmt, ok := s.(*ast.IfStmt)
			if !ok || ifStmt.Else != nil {
				continue
			}
			if condChecksNil(ifStmt.Cond, want) && terminates(ifStmt.Body) {
				return true
			}
		}
	}
	return false
}

// condChecksNonNil reports whether cond contains a `want != nil` conjunct.
func condChecksNonNil(cond ast.Expr, want string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return condChecksNonNil(e.X, want) || condChecksNonNil(e.Y, want)
		}
		return e.Op == token.NEQ && comparesToNil(e, want)
	}
	return false
}

// condChecksNil reports whether cond contains a `want == nil` disjunct.
func condChecksNil(cond ast.Expr, want string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return condChecksNil(e.X, want) || condChecksNil(e.Y, want)
		}
		return e.Op == token.EQL && comparesToNil(e, want)
	}
	return false
}

func comparesToNil(e *ast.BinaryExpr, want string) bool {
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isNil(e.Y) && types.ExprString(ast.Unparen(e.X)) == want {
		return true
	}
	if isNil(e.X) && types.ExprString(ast.Unparen(e.Y)) == want {
		return true
	}
	return false
}

// terminates reports whether a guard body unconditionally leaves the
// enclosing scope (return, branch, panic, or a fatal call).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic" || strings.HasPrefix(fun.Name, "fatal")
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			return name == "Fatal" || name == "Fatalf" || name == "Exit" || name == "Panic" || name == "Panicf"
		}
	}
	return false
}
