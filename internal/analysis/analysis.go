// Package analysis is the mdvet static-analysis framework: a deliberately
// small, standard-library-only reimplementation of the subset of
// golang.org/x/tools/go/analysis that the repository's domain checkers
// need (the build environment is offline, so the x/tools module cannot be
// vendored; the API mirrors the upstream shape so the analyzers port
// directly if the dependency ever becomes available).
//
// The framework exists to enforce, at compile time, the two contracts the
// paper's results rest on and that this repo otherwise proves only
// dynamically (DESIGN.md §12):
//
//   - determinism: bit-identical trajectories for every worker count and
//     ghost protocol (DESIGN.md §7, §9), which forbids iteration-order-
//     dependent reductions, wall-clock reads, and global math/rand in the
//     simulation packages;
//   - collective symmetry: every rank enters every mpi collective in the
//     same order (the Allgather generation race class), which forbids
//     rank-dependent collective call shapes.
//
// An analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Source-level directives tune the checks:
//
//	//mdvet:ignore <analyzer> <reason>   suppress findings on this or the
//	                                     next line; the reason is mandatory
//	//mdvet:panics <reason>              license a bare panic on this or
//	                                     the next line for errpanic
//	//mdvet:hot                          (func doc) zero-alloc hot path —
//	                                     checked by hotalloc
//	//mdvet:collective                   (func doc) every rank must call
//	                                     this function in lockstep —
//	                                     treated like an mpi collective by
//	                                     collsym and preemptpoll
//	//mdvet:boundary                     (func doc) declared checkpoint/
//	                                     preemption boundary — satisfies
//	                                     the preemptpoll loop contract
//
// Suppression directives are themselves audited: one that suppresses
// nothing after every analyzer ran is reported as stale (Directives.Stale,
// folded into Check).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check. Run inspects the package in the Pass and
// reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass connects one Analyzer run to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Dirs      *Directives

	sink       *[]Diagnostic
	suppressed *int
}

// Reportf records a finding unless an //mdvet:ignore directive for this
// analyzer covers the position (counted as a suppression for Stats).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.Dirs.Ignored(p.Analyzer.Name, position) {
		if p.suppressed != nil {
			*p.suppressed++
		}
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Exempted records that a would-be finding was excluded by a reasoned
// exemption directive (//mdvet:panics), so Stats counts it as suppressed
// alongside //mdvet:ignore hits and exemption growth stays visible in lint
// output.
func (p *Pass) Exempted() {
	if p.suppressed != nil {
		*p.suppressed++
	}
}

// FuncDeclOf resolves a function or method object back to its declaration
// in this package, or nil (for imported, builtin, or synthetic objects).
func (p *Pass) FuncDeclOf(obj types.Object) *ast.FuncDecl {
	if obj == nil {
		return nil
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if p.TypesInfo.Defs[fn.Name] == obj {
				return fn
			}
		}
	}
	return nil
}

// A Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Dirs       *Directives
}

// RunAnalyzer applies one analyzer to one package and returns its findings.
func RunAnalyzer(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	return runAnalyzer(pkg, a, nil)
}

func runAnalyzer(pkg *Package, a *Analyzer, suppressed *int) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		Dirs:       pkg.Dirs,
		sink:       &diags,
		suppressed: suppressed,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	return diags, nil
}

// Stats counts one analyzer's outcomes across a Check run: findings that
// reached the report and findings an //mdvet:ignore swallowed. The
// contrast makes "clean" distinguishable from "suppressed" in CI logs.
type Stats struct {
	Analyzer   string
	Reported   int
	Suppressed int
}

// Check applies every analyzer to every package, appends one diagnostic
// per malformed or stale //mdvet: directive, and returns the findings
// sorted by position.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := CheckStats(pkgs, analyzers)
	return diags, err
}

// CheckStats is Check plus the per-analyzer reported/suppressed counts,
// in analyzer order. Stale-directive detection runs after the full suite:
// a suppression directive no analyzer used across the whole run is dead
// and reported at its own position.
func CheckStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Stats, error) {
	stats := make([]Stats, len(analyzers))
	for i, a := range analyzers {
		stats[i].Analyzer = a.Name
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Dirs.Bad()...)
		for i, a := range analyzers {
			ds, err := runAnalyzer(pkg, a, &stats[i].Suppressed)
			if err != nil {
				return nil, nil, err
			}
			stats[i].Reported += len(ds)
			diags = append(diags, ds...)
		}
	}
	// Every analyzer has now run over every package, so any suppression
	// directive still unused is stale.
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Dirs.Stale()...)
	}
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
	return diags, stats, nil
}
