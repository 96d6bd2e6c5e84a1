// Package ctxflow implements the thermolint analyzer that enforces context
// plumbing through the sweep engine and the thermod server. A thermod drain
// cancels the runner's unstarted jobs through the context handed to the
// sweep, and each SSE stream ends with its request's context; both hold only
// if no layer in between drops or replaces the caller's context.
//
// Three rules:
//
//  1. context.Background() and context.TODO() are banned below cmd/: library
//     code accepts its context from the caller. A process lifecycle root
//     (cmd main, or the one documented daemon root) is declared with
//     //lint:allow ctxflow <reason>.
//  2. A function that receives a context must not drop it: calling a
//     context-accepting function with a fresh Background/TODO, or with a
//     nil context, severs the caller's cancellation chain.
//  3. In the engine/serving packages, an infinite select loop must carry a
//     cancellation case — a receive from ctx.Done() or from a shutdown
//     channel — or the goroutine running it can never be shut down.
package ctxflow

import (
	"go/ast"
	"go/types"
	"regexp"

	"thermometer/internal/analysis"
)

// Scope selects the import paths where ambient context construction is
// banned. Tests override it to target testdata packages.
var Scope = regexp.MustCompile(`^thermometer/internal/`)

// LoopScope selects the long-lived engine/serving packages whose select
// loops must be cancelable. Tests override it.
var LoopScope = regexp.MustCompile(`^thermometer/internal/(runner|server|telemetry)(/|$)`)

// shutdownChan matches channel identifiers conventionally used to stop a
// loop.
var shutdownChan = regexp.MustCompile(`(?i)(done|stop|quit|shutdown|clos)`)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "bans ambient context.Background/TODO below cmd/, flags dropped or " +
		"nil contexts in context-carrying functions, and requires a " +
		"cancellation case in engine/server select loops",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if Scope.MatchString(pass.Pkg.Path()) {
		checkAmbient(pass)
	}
	if LoopScope.MatchString(pass.Pkg.Path()) {
		checkSelectLoops(pass)
	}
	return nil
}

func checkAmbient(pass *analysis.Pass) {
	pass.InspectStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeOf(pass.Info, call)
		if callee == nil {
			return true
		}
		if isContextRoot(callee) {
			if enclosingHasCtx(pass, stack) {
				pass.Reportf(call.Pos(),
					"context.%s() drops the ctx this function already receives; thread the caller's context instead",
					callee.Name())
			} else {
				pass.Reportf(call.Pos(),
					"ambient context.%s() below cmd/: accept a context from the caller, or document a process root with //lint:allow ctxflow <reason>",
					callee.Name())
			}
			return true
		}
		checkNilContextArg(pass, call, callee, stack)
		return true
	})
}

func isContextRoot(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// checkNilContextArg flags `f(nil, ...)` where the parameter is a
// context.Context and the caller has a live ctx to pass.
func checkNilContextArg(pass *analysis.Pass, call *ast.CallExpr, callee *types.Func, stack []ast.Node) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || id.Name != "nil" {
			continue
		}
		if !isContextType(params.At(i).Type()) {
			continue
		}
		if enclosingHasCtx(pass, stack) {
			pass.Reportf(arg.Pos(),
				"passes nil for the context.Context parameter of %s while this function receives a ctx; thread it",
				callee.Name())
		}
	}
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// enclosingHasCtx reports whether the enclosing function declaration, or a
// function literal between it and the node, takes a context.Context
// parameter. A literal closes over its parents' parameters, so a callback
// inside a function that receives a ctx has that ctx in scope.
func enclosingHasCtx(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		for _, fld := range ft.Params.List {
			if t := pass.TypeOf(fld.Type); t != nil && isContextType(t) {
				return true
			}
		}
		if _, ok := stack[i].(*ast.FuncDecl); ok {
			return false
		}
	}
	return false
}

// checkSelectLoops flags `for { select { ... } }` loops with no cancellation
// case.
func checkSelectLoops(pass *analysis.Pass) {
	pass.Inspect(func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		for _, st := range loop.Body.List {
			sel, ok := st.(*ast.SelectStmt)
			if !ok {
				continue
			}
			if !hasCancelCase(sel) {
				pass.Reportf(sel.Pos(),
					"infinite select loop has no cancellation case (ctx.Done() or a shutdown channel receive); this loop cannot be shut down")
			}
		}
		return true
	})
}

// hasCancelCase reports whether any comm clause receives from ctx.Done() (any
// .Done() call) or from a shutdown-named channel. A default case does not
// count: it makes one iteration non-blocking, not the loop stoppable.
func hasCancelCase(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch c := comm.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		un, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok {
			continue
		}
		if isCancelChan(un.X) {
			return true
		}
	}
	return false
}

func isCancelChan(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Done"
		}
	case *ast.Ident:
		return shutdownChan.MatchString(e.Name)
	case *ast.SelectorExpr:
		return shutdownChan.MatchString(e.Sel.Name)
	}
	return false
}
