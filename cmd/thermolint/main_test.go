package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermometer/internal/analysis"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it wrote.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	fn()
	w.Close()
	return <-done
}

// TestReportJSONSorted pins the -json contract: findings come out sorted by
// (file, line, column, analyzer, message) after path relativization, so CI
// diffs and problem-matcher annotations are stable run to run.
func TestReportJSONSorted(t *testing.T) {
	root := filepath.FromSlash("/work/mod")
	abs := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	diags := []analysis.Diagnostic{
		{File: abs("internal/b/b.go"), Line: 3, Column: 1, Analyzer: "noambient", Message: "getenv"},
		{File: abs("internal/a/a.go"), Line: 9, Column: 2, Analyzer: "ctxflow", Message: "ambient"},
		{File: abs("internal/a/a.go"), Line: 4, Column: 7, Analyzer: "orderedfloat", Message: "racy sum"},
		{File: abs("internal/a/a.go"), Line: 4, Column: 7, Analyzer: "lockdiscipline", Message: "unguarded"},
		{File: filepath.FromSlash("/elsewhere/x.go"), Line: 1, Column: 1, Analyzer: "detrange", Message: "outside module"},
	}
	out := captureStdout(t, func() { report(diags, true, root) })

	var got struct {
		Findings []analysis.Diagnostic `json:"findings"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("report -json emitted invalid JSON: %v\n%s", err, out)
	}
	want := []analysis.Diagnostic{
		{File: filepath.FromSlash("/elsewhere/x.go"), Line: 1, Column: 1, Analyzer: "detrange", Message: "outside module"},
		{File: filepath.FromSlash("internal/a/a.go"), Line: 4, Column: 7, Analyzer: "lockdiscipline", Message: "unguarded"},
		{File: filepath.FromSlash("internal/a/a.go"), Line: 4, Column: 7, Analyzer: "orderedfloat", Message: "racy sum"},
		{File: filepath.FromSlash("internal/a/a.go"), Line: 9, Column: 2, Analyzer: "ctxflow", Message: "ambient"},
		{File: filepath.FromSlash("internal/b/b.go"), Line: 3, Column: 1, Analyzer: "noambient", Message: "getenv"},
	}
	if len(got.Findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got.Findings), len(want), out)
	}
	for i := range want {
		if got.Findings[i] != want[i] {
			t.Errorf("finding[%d] = %+v, want %+v", i, got.Findings[i], want[i])
		}
	}
}

// TestReportJSONEmpty pins the clean-run shape: "findings" is an empty
// array, never null, so `jq '.findings[]'`-style consumers don't need a
// null guard.
func TestReportJSONEmpty(t *testing.T) {
	out := captureStdout(t, func() { report(nil, true, "/work") })
	if !strings.Contains(string(out), `"findings": []`) {
		t.Fatalf("clean -json output lacks empty findings array:\n%s", out)
	}
}

// TestSuiteComplete pins the analyzer roster: all five checks must be
// wired into the driver, each exactly once.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"ctxflow", "detrange", "lockdiscipline", "noambient", "orderedfloat",
	}
	seen := make(map[string]bool, len(suite))
	for _, a := range suite {
		if seen[a.Name] {
			t.Errorf("analyzer %s registered twice", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("analyzer %s missing from the driver suite", name)
		}
	}
	if len(suite) != len(want) {
		t.Errorf("suite has %d analyzers, want %d", len(suite), len(want))
	}
}

// TestEndToEndTempModule loads a throwaway module named "thermometer" (so
// the analyzers' Scope regexps apply) and checks that findings from two
// analyzers surface through the same Run/report path main() uses, in sorted
// order.
func TestEndToEndTempModule(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module thermometer\n\ngo 1.22\n")
	write("internal/runner/r.go", `package runner

import (
	"context"
	"os"
)

// Workers trips noambient: the pool width comes from the environment.
func Workers() string {
	return os.Getenv("WORKERS")
}

// Root trips ctxflow: an ambient context below cmd/.
func Root() context.Context {
	return context.Background()
}
`)
	loader := analysis.NewModuleLoader(dir, "thermometer")
	pkgs, err := loader.LoadTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { report(diags, true, dir) })
	var got struct {
		Findings []analysis.Diagnostic `json:"findings"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	byAnalyzer := make(map[string]int)
	for i, f := range got.Findings {
		byAnalyzer[f.Analyzer]++
		if filepath.IsAbs(f.File) {
			t.Errorf("finding %d has absolute path %s; want module-relative", i, f.File)
		}
		if i > 0 {
			prev := got.Findings[i-1]
			if prev.File > f.File || (prev.File == f.File && prev.Line > f.Line) {
				t.Errorf("findings out of order: %v before %v", prev, f)
			}
		}
	}
	if byAnalyzer["noambient"] == 0 {
		t.Errorf("expected a noambient finding, got %v\n%s", byAnalyzer, out)
	}
	if byAnalyzer["ctxflow"] == 0 {
		t.Errorf("expected a ctxflow finding, got %v\n%s", byAnalyzer, out)
	}
}

// TestExpandStaysInModule pins the module boundary: a pattern resolving to a
// sibling directory whose name extends the module root's ("mod2" next to
// "mod") is rejected, not analyzed under import paths no Scope matches.
func TestExpandStaysInModule(t *testing.T) {
	parent := t.TempDir()
	root := filepath.Join(parent, "mod")
	for _, dir := range []string{root, filepath.Join(parent, "mod2")} {
		pkg := filepath.Join(dir, "internal", "a")
		if err := os.MkdirAll(pkg, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkg, "a.go"), []byte("package a\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module thermometer\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewModuleLoader(root, "thermometer")
	for _, pattern := range []string{
		"../mod2/...", "../mod2/internal/a", filepath.Join(parent, "mod2", "internal", "a"), "..",
	} {
		if pkgs, err := expand(loader, root, root, pattern); err == nil {
			t.Errorf("expand(%q) loaded %d package(s) from outside the module", pattern, len(pkgs))
		}
	}
	for _, pattern := range []string{"./...", "./internal/a", filepath.Join(root, "internal", "a")} {
		pkgs, err := expand(loader, root, root, pattern)
		if err != nil {
			t.Errorf("expand(%q): %v", pattern, err)
			continue
		}
		if len(pkgs) != 1 || pkgs[0].Path != "thermometer/internal/a" {
			t.Errorf("expand(%q) = %d package(s), want thermometer/internal/a", pattern, len(pkgs))
		}
	}
}
