// Command thermolint runs the repository's custom static-analysis suite —
// the determinism and observer/policy contract checks that keep the
// simulator bit-for-bit reproducible (see DESIGN.md, "Determinism & static
// analysis").
//
// Usage:
//
//	thermolint ./...                  # whole module
//	thermolint ./internal/...         # subtree
//	thermolint -json ./...            # machine-readable findings
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
//
// Analyzers: ctxflow, detrange, lockdiscipline, noambient, orderedfloat.
// Suppress a finding with `//lint:allow <analyzer> <reason>` on the flagged
// line or the line above; the analyzer name and the reason are mandatory,
// and the suppression silences only that analyzer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"thermometer/internal/analysis"
	"thermometer/internal/analysis/ctxflow"
	"thermometer/internal/analysis/detrange"
	"thermometer/internal/analysis/lockdiscipline"
	"thermometer/internal/analysis/noambient"
	"thermometer/internal/analysis/orderedfloat"
)

var suite = []*analysis.Analyzer{
	ctxflow.Analyzer,
	detrange.Analyzer,
	lockdiscipline.Analyzer,
	noambient.Analyzer,
	orderedfloat.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modPath, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader := analysis.NewModuleLoader(root, modPath)

	var pkgs []*analysis.Package
	for _, pattern := range args {
		got, err := expand(loader, root, cwd, pattern)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, got...)
	}

	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		fatal(err)
	}
	report(diags, *jsonOut, root)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// expand resolves one package pattern ("./...", "./internal/trace", ".")
// relative to cwd into loaded packages.
func expand(loader *analysis.Loader, root, cwd, pattern string) ([]*analysis.Package, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		recursive = true
		pattern = rest
		if pattern == "." || pattern == "" {
			pattern = "."
		}
	}
	dir := pattern
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(cwd, dir)
	}
	// Containment is a relative-path test: a sibling whose name extends
	// the root's ("repo2" beside "repo") shares its string prefix but is
	// outside the module.
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return nil, fmt.Errorf("pattern %q resolves outside the module at %s", pattern, root)
	}
	if recursive {
		return loader.LoadTree(dir)
	}
	path := loaderPath(rel)
	pkg, err := loader.Load(path)
	if err != nil {
		return nil, err
	}
	return []*analysis.Package{pkg}, nil
}

func loaderPath(rel string) string {
	if rel == "." {
		return "thermometer"
	}
	return "thermometer/" + filepath.ToSlash(rel)
}

func report(diags []analysis.Diagnostic, asJSON bool, root string) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	// Re-sort after path relativization so the emitted order (text and
	// -json alike) is stable regardless of where the tool was invoked from.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if asJSON {
		if diags == nil {
			diags = []analysis.Diagnostic{} // "findings": [], never null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []analysis.Diagnostic `json:"findings"`
		}{diags}); err != nil {
			fatal(err)
		}
		return
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "thermolint: %d finding(s)\n", len(diags))
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: thermolint [-json] [packages]\n\nanalyzers:\n")
	for _, a := range suite {
		fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "thermolint: %v\n", err)
	os.Exit(2)
}
