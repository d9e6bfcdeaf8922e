// Package analysis is slimvet's standard-library-only static-analysis
// framework: a small analyzer driver built on go/ast, go/parser, go/token,
// and go/types (with the source importer) plus the five SLIM-specific
// analyzers described in docs/STATIC_ANALYSIS.md.
//
// The paper's DMI contract (§4.4) — and the conventions PRs 1–3 layered on
// top of it (TRIM state only touched under mu, typed error sentinels, *Ctx
// resolution paths, obs instrumentation on every exported op) — are
// convention-enforced, exactly the kind of invariant that rots silently as
// the codebase grows. This package turns those conventions into mechanical
// checks, the XBase argument (PAPERS.md) for checked uniformity over
// hand-maintained discipline.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature (Analyzer, Pass, Reportf) so analyzers stay portable if the
// repo ever adopts the real thing, but it depends on nothing outside the
// standard library.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding, positioned in module-root-relative terms so
// output is stable across checkouts.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-root-relative, forward slashes
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named convention check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and the driver's
	// -enable/-disable flags.
	Name string
	// Doc is a one-paragraph description shown by `slimvet -list`.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one (package, analyzer) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the loaded package: parsed files plus type information.
	Pkg *Package
	// moduleRoot rewrites absolute positions into repo-relative ones.
	moduleRoot string
	diags      *[]Diagnostic
}

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// TypesPkg returns the package's type-checked package object.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := relPath(p.moduleRoot, position.Filename)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockGuard, ErrWrap, CtxFlow, ObsCoverage, MetricNames, TraceCtx,
		AliasGuard, LockOrder, AtomicHygiene, GoroLife,
	}
}

// ByName resolves analyzer names (e.g. from -enable/-disable flags).
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}
