package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the per-package static call graph: one node per function or
// method declared in the package, one edge per direct call between them.
// Calls through interfaces, function values, and go/defer thunks whose callee
// cannot be resolved to an in-package declaration simply have no edge — the
// graph is deliberately lightweight, built for lockdiscipline to follow a
// lock through the callers of an xxxLocked helper, not for whole-program
// reachability.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
}

// CallNode is one declared function or method.
type CallNode struct {
	// Func is the function's type-checker object.
	Func *types.Func
	// Decl is the syntax of the declaration (never nil: only declared
	// functions get nodes).
	Decl *ast.FuncDecl
	// CalledBy are the incoming edges: every in-package call site whose
	// callee is this function, in source order. A call made inside a
	// function literal is attributed to the declaration enclosing it.
	CalledBy []*CallSite
}

// CallSite is one direct call edge.
type CallSite struct {
	Caller *CallNode
	// Call is the call expression at the site (inside Caller's body).
	Call *ast.CallExpr
}

// Node returns the graph node for fn, or nil if fn is not declared in the
// package.
func (g *CallGraph) Node(fn *types.Func) *CallNode {
	if g == nil {
		return nil
	}
	return g.nodes[fn]
}

// CallGraph returns the package's call graph, building it on first use. The
// graph is cached on the package, so the suite pays the build cost once.
func (p *Pass) CallGraph() *CallGraph {
	if p.pkg != nil && p.pkg.cg != nil {
		return p.pkg.cg
	}
	g := buildCallGraph(p.Files, p.Info)
	if p.pkg != nil {
		p.pkg.cg = g
	}
	return g
}

// FuncFor resolves the *types.Func declared by decl, or nil.
func (p *Pass) FuncFor(decl *ast.FuncDecl) *types.Func {
	fn, _ := p.Info.Defs[decl.Name].(*types.Func)
	return fn
}

func buildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CallNode)}
	// First pass: one node per declaration.
	for _, f := range files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
				g.nodes[fn] = &CallNode{Func: fn, Decl: decl}
			}
		}
	}
	// Second pass: edges for calls that resolve to an in-package node.
	for _, f := range files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			caller := g.nodes[info.Defs[decl.Name].(*types.Func)]
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := CalleeOf(info, call)
				if callee == nil {
					return true
				}
				target, ok := g.nodes[callee]
				if !ok {
					return true
				}
				target.CalledBy = append(target.CalledBy, &CallSite{Caller: caller, Call: call})
				return true
			})
		}
	}
	return g
}

// CalleeOf resolves a call expression to the *types.Func it statically
// invokes: a plain function, a method (through its selection), or nil for
// calls through function values, builtins, and type conversions.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.F).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
