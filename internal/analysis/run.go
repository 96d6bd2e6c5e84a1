package analysis

import (
	"fmt"
	"sort"
)

// Run executes every analyzer over every package, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
// Malformed suppression comments are themselves reported (analyzer "lint").
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers)+1)
	known["lint"] = true // the suppression checker's own findings
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := buildSuppressions(pkg.Fset, pkg.Files, known)
		out = append(out, sup.malformed...)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				pkg:      pkg,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				if !sup.suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}
