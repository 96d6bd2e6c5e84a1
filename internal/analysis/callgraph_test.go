package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// writeTestdata lays out src/<path>/<name>.go files under a temp root and
// returns a loader for them.
func writeTestdata(t *testing.T, files map[string]string) *Loader {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		p := filepath.Join(root, "src", filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return NewTestdataLoader(filepath.Join(root, "src"))
}

func TestCallGraphDirectEdges(t *testing.T) {
	loader := writeTestdata(t, map[string]string{
		"cgtest/a.go": `package cgtest

type S struct{ n int }

func (s *S) locked() { s.n++ }

func (s *S) Outer() { s.locked(); helper(s) }

func helper(s *S) {
	f := func() { s.locked() } // call inside a literal attributes to helper
	f()
}

func orphan() {}
`,
	})
	pkg, err := loader.Load("cgtest")
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Analyzer: &Analyzer{Name: "test"}, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, pkg: pkg}
	g := pass.CallGraph()
	if g2 := pass.CallGraph(); g2 != g {
		t.Error("CallGraph not cached on the package")
	}

	find := func(name string) *CallNode {
		t.Helper()
		for fn, n := range g.nodes {
			if fn.Name() == name {
				return n
			}
		}
		t.Fatalf("no node for %s", name)
		return nil
	}
	outer, locked, helper, orphan := find("Outer"), find("locked"), find("helper"), find("orphan")
	// locked is called from Outer directly and from helper's literal.
	if len(locked.CalledBy) != 2 {
		t.Fatalf("locked.CalledBy = %d, want 2", len(locked.CalledBy))
	}
	if locked.CalledBy[0].Caller != outer || locked.CalledBy[1].Caller != helper {
		t.Errorf("locked callers resolved to %v, %v", locked.CalledBy[0].Caller.Func, locked.CalledBy[1].Caller.Func)
	}
	if len(helper.CalledBy) != 1 || helper.CalledBy[0].Caller != outer {
		t.Errorf("helper.CalledBy = %v, want one site in Outer", helper.CalledBy)
	}
	if len(outer.CalledBy) != 0 || len(orphan.CalledBy) != 0 {
		t.Errorf("uncalled functions have callers: Outer %v, orphan %v", outer.CalledBy, orphan.CalledBy)
	}
}

func TestCalleeOfMethodSelection(t *testing.T) {
	loader := writeTestdata(t, map[string]string{
		"cgsel/a.go": `package cgsel

import "strings"

type T struct{}

func (T) M() {}

func f(t T) {
	t.M()
	_ = strings.TrimSpace("x")
}
`,
	})
	pkg, err := loader.Load("cgsel")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := CalleeOf(pkg.Info, call); fn != nil {
					got = append(got, fn.Name())
				}
			}
			return true
		})
	}
	want := map[string]bool{"M": false, "TrimSpace": false}
	for _, name := range got {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("CalleeOf did not resolve %s (resolved: %v)", name, got)
		}
	}
}
