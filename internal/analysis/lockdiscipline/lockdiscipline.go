// Package lockdiscipline implements the thermolint analyzer that enforces
// mutex-guard annotations on struct fields.
//
// A field carrying the comment
//
//	// guarded by <mu>
//
// (where <mu> names a sibling sync.Mutex/RWMutex field) may only be read or
// written while that mutex is held. "Held" is established structurally: a
// `x.mu.Lock()` earlier in the same function with no intervening
// `x.mu.Unlock()` on the path (deferred unlocks keep the lock to function
// exit), or — for the xxxLocked helper idiom — at every in-package call site
// of the enclosing method, transitively through direct calls (the
// per-package call graph). A goroutine body never inherits its spawner's
// locks, and a function literal is analyzed as its own context: lock
// ownership does not leak across concurrency or escape boundaries.
//
// Copies of lock-bearing values are go vet's copylocks check, which CI runs.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"thermometer/internal/analysis"
)

// Analyzer is the lockdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "fields annotated `// guarded by <mu>` may only be accessed with " +
		"that mutex held (directly or via every caller)",
	Run: run,
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// guardInfo is the annotation on one struct field.
type guardInfo struct {
	mutex  string // sibling field name of the guarding mutex
	owner  string // display name of the struct type
	fldPos token.Pos
}

func run(pass *analysis.Pass) error {
	guarded := collectGuards(pass)
	if len(guarded) == 0 {
		return nil
	}

	w := &walker{pass: pass, guarded: guarded, siteHeld: make(map[*ast.CallExpr]lockState)}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				w.walkFunc(decl)
			}
		}
	}

	// Resolve the accesses that were not locally dominated by a Lock: the
	// xxxLocked idiom is satisfied when every in-package caller holds the
	// mutex at the call site (transitively).
	g := pass.CallGraph()
	for _, acc := range w.pending {
		if acc.baseIsRecv {
			node := g.Node(pass.FuncFor(acc.fn))
			if node != nil && w.heldByCallers(node, acc.mutexField, make(map[*analysis.CallNode]bool)) {
				continue
			}
		}
		info := guarded[acc.field]
		pass.Reportf(acc.pos,
			"field %s.%s is guarded by %s but accessed without %s held (no dominating Lock in this function%s)",
			info.owner, acc.field.Name(), info.mutex, acc.mutexExpr, callerNote(acc))
	}
	return nil
}

func callerNote(acc pendingAccess) string {
	if acc.baseIsRecv {
		return " or at every caller"
	}
	return ""
}

// collectGuards finds `// guarded by <mu>` field annotations, validates the
// named mutex is a sibling field, and maps field objects to their guards.
func collectGuards(pass *analysis.Pass) map[*types.Var]guardInfo {
	guarded := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mu, ok := guardAnnotation(fld)
				if !ok {
					continue
				}
				if !fieldNames[mu] {
					pass.Reportf(fld.Pos(),
						"guarded-by annotation names %q, which is not a field of %s", mu, ts.Name.Name)
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guarded[v] = guardInfo{mutex: mu, owner: ts.Name.Name, fldPos: fld.Pos()}
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment.
func guardAnnotation(fld *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// heldByCallers reports whether every in-package call site of node holds the
// callee receiver's mutexField. A node with no in-package callers (an
// exported entry point) cannot prove anything; a call cycle without a
// locking root likewise fails.
func (w *walker) heldByCallers(node *analysis.CallNode, mutexField string, visited map[*analysis.CallNode]bool) bool {
	if visited[node] {
		return false
	}
	visited[node] = true
	if len(node.CalledBy) == 0 {
		return false
	}
	for _, site := range node.CalledBy {
		sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false // plain function call: no receiver to hold a lock on
		}
		base := ast.Unparen(sel.X)
		mexpr := types.ExprString(base) + "." + mutexField
		if w.siteHeld[site.Call][mexpr] {
			continue
		}
		// The caller may itself run entirely under the lock: recurse when
		// the receiver at this site is the caller's own receiver.
		if isReceiverIdent(w.pass, base, site.Caller.Decl) &&
			w.heldByCallers(site.Caller, mutexField, visited) {
			continue
		}
		return false
	}
	return true
}

// isReceiverIdent reports whether e is an identifier bound to decl's
// receiver.
func isReceiverIdent(pass *analysis.Pass, e ast.Expr, decl *ast.FuncDecl) bool {
	id, ok := e.(*ast.Ident)
	if !ok || decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return false
	}
	obj := pass.Info.Uses[id]
	return obj != nil && obj == pass.Info.Defs[decl.Recv.List[0].Names[0]]
}
