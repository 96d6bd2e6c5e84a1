// Package noambient implements the thermolint analyzer that forbids ambient
// inputs — wall-clock time, environment variables, and the standard
// library's math/rand — inside simulator packages.
//
// Simulation results must be a pure function of (trace, config, seed).
// Wall-clock reads belong in cmd/ front-ends and internal/telemetry;
// randomness must flow through internal/xrand, whose xoshiro256** streams
// are stable across Go releases (math/rand's are not, and its global
// generator is seeded per-process).
package noambient

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"

	"thermometer/internal/analysis"
)

// Scope selects packages subject to the contract; Exempt carves out the
// packages that legitimately touch wall-clock or wrap math/rand. server is
// exempt because it owns the job envelope timestamps (submitted/started/
// finished); the runner layer underneath it stays in scope — its results
// must remain a pure function of the spec for content-addressed caching.
//
// The telemetry exemption is the package itself only, NOT its subtree.
var (
	Scope  = regexp.MustCompile(`^thermometer/internal/`)
	Exempt = regexp.MustCompile(`^thermometer/internal/((xrand|analysis|detmap|server)(/|$)|telemetry$)`)
)

// bannedFuncs maps package path -> function names whose use is reported.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock time",
		"Since": "wall-clock time",
		"Until": "wall-clock time",
	},
	"os": {
		"Getenv":    "environment access",
		"LookupEnv": "environment access",
		"Environ":   "environment access",
	},
}

// bannedImports are packages that may not be imported at all.
var bannedImports = map[string]string{
	"math/rand":    "use internal/xrand (deterministic, version-stable xoshiro256**)",
	"math/rand/v2": "use internal/xrand (deterministic, version-stable xoshiro256**)",
}

// Analyzer is the noambient pass.
var Analyzer = &analysis.Analyzer{
	Name: "noambient",
	Doc: "forbids time.Now/Since, os.Getenv, and math/rand in simulator " +
		"packages; results must be a pure function of (trace, config, seed)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !Scope.MatchString(pass.Pkg.Path()) || Exempt.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s is forbidden in simulator packages: %s", path, why)
			}
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		if names, ok := bannedFuncs[pkgName.Imported().Path()]; ok {
			if why, ok := names[sel.Sel.Name]; ok {
				pass.Reportf(sel.Pos(),
					"%s.%s (%s) is forbidden in simulator packages; wall-clock belongs in cmd/ or internal/telemetry, randomness in internal/xrand",
					pkgName.Imported().Path(), sel.Sel.Name, why)
			}
		}
		return true
	})
	return nil
}
