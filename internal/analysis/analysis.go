// Package analysis is the simulator's static-analysis suite: eight
// analyzers that machine-check the determinism and hot-path contracts the
// reproduction depends on (seeded runs must be bit-identical, the virtual
// clock is the only clock, the PR-3 incremental aggregates must never
// desynchronize from ground truth, warm-run Reset paths must account for
// every field of the structs they reuse, functions on the engine inner
// loop must not allocate, and no field may retain a pointer into a slice
// element).
//
// Since PR 9 the suite is interprocedural: a Module bundles every loaded
// package with a whole-program call graph (callgraph.go) and per-function
// facts computed by fixpoint (facts.go, reach.go) — "nondeterministic"
// taint flowing callee→caller and "hot" reachability flowing from the
// engine inner loop caller→callee. noclock/rngonly flag the call site
// that imports a taint from an unchecked package, and hotalloc flags
// allocating constructs in any hot function.
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
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	// Mod is the module-wide view: all packages under analysis plus the
	// call graph and propagated facts. Never nil — single-package Run
	// wraps its package in a one-package Module.
	Mod *Module

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

// A Module is the interprocedural unit of analysis: every package loaded
// for one run, the whole-program call graph over them, and the
// per-function facts propagated to fixpoint. Analyzers reach it through
// Pass.Mod.
type Module struct {
	// Pkgs is sorted by import path.
	Pkgs  []*Package
	Graph *CallGraph
}

// NewModule builds the call graph over pkgs and computes facts. The input
// may arrive in any order; the Module's view is sorted by import path.
func NewModule(pkgs []*Package) *Module {
	g := BuildGraph(pkgs)
	g.computeFacts()
	return &Module{Pkgs: g.pkgs, Graph: g}
}

// checksPath reports whether a package with the given import path is part
// of this module — i.e. its own body is under analysis, so taints inside
// it are flagged directly rather than at call sites that import them.
func (m *Module) checksPath(path string) bool {
	for _, p := range m.Pkgs {
		if p.Path == path {
			return true
		}
	}
	return false
}

// Run applies each analyzer to the single package pkg. The package is
// wrapped in a one-package Module so fact-consuming analyzers see a
// (degenerate) call graph; cross-package propagation needs RunModule.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runPass(NewModule([]*Package{pkg}), pkg, analyzers)
}

// RunModule applies each analyzer to every package of m and returns all
// findings sorted by position, then analyzer name — a stable order
// independent of analyzer and package scheduling.
func RunModule(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		ds, err := runPass(m, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sortDiags(diags)
	return diags, nil
}

func runPass(m *Module, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Mod:      m,
			pkg:      pkg,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortDiags(diags)
	return diags, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{RngOnly, NoClock, MapOrder, FloatSum, StatsMut, HotAlloc, ResetState, PtrRetain}
}
