// Package analysis is the simulator's static-analysis suite: four
// per-package analyzers that machine-check the determinism contracts the
// reproduction depends on (seeded runs must be bit-identical, and the
// virtual clock is the only clock). Two contracts are measured instead of
// checked here: the root package measures the hot path's no-allocation
// contract on warm runs (TestWarmRunAllocsBounded, DESIGN.md §16), and
// internal/mapreduce's FuzzResetEqualsNew measures that the driver's
// incremental aggregates mirror every slot and availability change and
// that a run leaves its configuration unchanged (DESIGN.md §12).
//
// The framework deliberately mirrors the core shapes of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so each
// analyzer's Run function could be lifted into an x/tools multichecker
// unchanged. It is self-contained because this repository builds with the
// standard library only: packages are parsed with go/parser and
// type-checked with go/types using the stdlib source importer, which
// resolves both standard-library and module-internal imports without
// network access.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// An Analyzer is one named check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is a one-paragraph description of the contract it enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned at Pos in the package's FileSet.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one package: the syntax trees, the
// type information, and the reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg    *Package
	report func(Diagnostic)
}

// Path returns the package's import path. Fixture packages may override it
// with a "//eantlint:path" directive so path-scoped analyzers can be
// exercised from testdata.
func (p *Pass) Path() string { return p.pkg.Path }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Annotation returns the "//eant:<name> <reason>" annotation attached to
// the statement at pos: a trailing comment on the same line or a comment on
// the line immediately above. The boolean reports whether one was found;
// Reason may be empty, which analyzers treat as its own violation (every
// escape hatch must carry a justification).
func (p *Pass) Annotation(pos token.Pos, name string) (reason string, ok bool) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if a, found := p.pkg.annotations[annKey{position.Filename, line, name}]; found {
			return a.Reason, true
		}
	}
	return "", false
}

// Run applies each analyzer to every package and returns all findings
// sorted by position, analyzer name and message — an order independent
// of analyzer and package order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message),
		)
	})
	return diags, nil
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{RngOnly, NoClock, MapOrder, FloatSum}
}
