// Package analysis is a miniature, dependency-free counterpart of
// golang.org/x/tools/go/analysis: it defines the Analyzer/Pass/Diagnostic
// vocabulary, a source-level package loader, and a driver that runs a suite
// of analyzers over a module and filters //lint:allow suppressions.
//
// It exists because this repository is built in hermetic environments with
// no module proxy access, so the real x/tools framework cannot be fetched;
// everything here uses only the standard library (go/parser for syntax,
// go/types with the "source" importer for type information). The API shape
// deliberately mirrors x/tools so analyzers can be ported either way with
// minimal edits.
//
// The domain analyzers themselves live in sibling packages (ctxflow,
// detrange, lockdiscipline, noambient, orderedfloat) and are assembled into
// a suite by cmd/thermolint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> suppression comments.
	Name string
	// Doc is a one-paragraph description shown by `thermolint -help`.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, located by resolved file position.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// A Pass connects one Analyzer to one package: syntax, type information,
// and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	pkg   *Package // owning package, for the shared call-graph cache
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Inspect walks every file of the package in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// InspectStack walks every file keeping the path from the file root to the
// current node. stack[len(stack)-1] is the node itself; fn's return value
// controls descent into children.
func (p *Pass) InspectStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				// ast.Inspect only delivers the closing nil when it
				// descended, so pop immediately when skipping children.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}
