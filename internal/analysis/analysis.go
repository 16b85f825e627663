// Package analysis is a self-contained static-analysis framework for
// the repo-specific invariant checkers behind cmd/omsvet. It mirrors
// the shape of golang.org/x/tools/go/analysis — an Analyzer owns a Run
// function over a typechecked Pass and reports position-anchored
// Diagnostics — but is built on the standard library alone
// (go/parser + go/types), so the suite runs in hermetic environments
// with no module downloads.
//
// The one driver, RunUnitchecker (unitchecker.go), speaks the `go vet
// -vettool` protocol, importing dependencies from the compiler export
// data the go command hands it. The analysistest fixtures are loaded
// from source instead (load.go), since they never build into the
// module.
//
// Findings are suppressed line-by-line with an explicit, audited
// directive: `//oms:allow(analyzer)` — see suppress.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker: a name (the handle used by
// //oms:allow directives and diagnostics), a one-paragraph doc of the
// invariant it enforces, and the per-package Run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// known is the registry of analyzer names that may appear in an
// //oms:allow directive. Each analyzer package registers itself in an
// init, so any driver that links an analyzer automatically accepts its
// name; every other name in a directive is itself a finding.
var known = map[string]bool{}

// RegisterName records an analyzer name as valid in //oms:allow
// directives.
func RegisterName(name string) { known[name] = true }

// KnownNames returns the registered analyzer names, sorted.
func KnownNames() []string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunAnalyzers runs every analyzer over one typechecked package and
// returns the surviving diagnostics: per-analyzer findings filtered
// through the //oms:allow directives in the package's files, plus a
// directive-validation finding for every unknown analyzer name. The
// result is sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path(), err)
		}
		diags = append(diags, pass.diags...)
	}
	dirs, bad := CollectDirectives(fset, files)
	diags = append(Suppress(fset, diags, dirs), bad...)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}
