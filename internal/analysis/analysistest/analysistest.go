// Package analysistest runs one analyzer over a fixture directory and
// checks its diagnostics against // want expectations embedded in the
// fixture source, mirroring golang.org/x/tools/go/analysis/analysistest
// on the repo's self-contained framework.
//
// A fixture is a directory of Go files forming one package (kept under
// testdata/ so the deliberate violations never build into the module).
// Lines that must trigger a finding carry a comment with one or more
// backquoted regexps:
//
//	f.Close() // want `error from Close is discarded`
//
// Each expectation must be matched by exactly one diagnostic on its
// line, and every diagnostic must match an expectation — a planted
// violation that goes unreported and a spurious finding on compliant
// code are both test failures.
//
// The fixture passes through the same //oms:allow suppression and
// directive validation as production runs, so fixtures can pin both
// that a directive silences a finding and that an unknown analyzer
// name in a directive is itself reported (those arrive under the
// analyzer name "omsvet").
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"

	// Link every production analyzer so fixtures exercise //oms:allow
	// directive validation against the same registry cmd/omsvet ships.
	_ "repro/internal/analysis/closeerr"
)

// wantRE matches the expectation clause of a comment: the word "want"
// followed by one or more backquoted regexps. The clause may open the
// comment or follow other text (e.g. an //oms:allow justification).
var wantRE = regexp.MustCompile("want((?:\\s+`[^`]*`)+)")

// expectation is one backquoted regexp awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads dir as a fixture package, runs a over it (with suppression
// and directive validation, exactly as the drivers do), and reports
// any mismatch between diagnostics and // want expectations on t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	loader := analysis.NewLoader("")
	pkg, err := loader.LoadFixtureDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				for _, raw := range strings.Split(m[1], "`")[1:] {
					raw = strings.TrimSpace(strings.TrimSuffix(raw, "`"))
					if raw == "" {
						continue
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}

	diags, err := analysis.RunAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
