package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //oms:allow(...) suppression comment. It
// silences findings of the named analyzers on the directive's own line
// and on the line immediately below it — covering both the
// end-of-line form
//
//	c.Close() //oms:allow(closeerr) teardown of a doomed conn
//
// and the standalone form on the preceding line. Anything after the
// closing parenthesis is a free-form justification; by convention
// every directive carries one.
type Directive struct {
	Pos   token.Pos
	File  string
	Line  int
	Names []string
}

// directivePrefix is the exact comment prefix of a suppression.
const directivePrefix = "//oms:allow("

// CollectDirectives parses every //oms:allow directive in files. The
// second result holds validation findings: a directive naming an
// analyzer that is not registered (see RegisterName) is reported
// rather than silently ignored — a typo in a suppression must never
// read as an enforced invariant.
func CollectDirectives(fset *token.FileSet, files []*ast.File) ([]Directive, []Diagnostic) {
	var dirs []Directive
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := c.Text[len(directivePrefix):]
				close := strings.IndexByte(rest, ')')
				if close < 0 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "omsvet",
						Message:  "malformed //oms:allow directive: missing ')'",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				d := Directive{Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
				for _, name := range strings.Split(rest[:close], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					if !known[name] {
						bad = append(bad, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "omsvet",
							Message: fmt.Sprintf("unknown analyzer %q in //oms:allow directive (known: %s)",
								name, strings.Join(KnownNames(), ", ")),
						})
						continue
					}
					d.Names = append(d.Names, name)
				}
				if len(d.Names) > 0 {
					dirs = append(dirs, d)
				}
			}
		}
	}
	return dirs, bad
}

// Suppress filters diags through the directives: a finding is dropped
// when a directive for its analyzer covers its line (the directive's
// line or the one below).
func Suppress(fset *token.FileSet, diags []Diagnostic, dirs []Directive) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
		name string
	}
	covered := make(map[key]bool)
	for _, d := range dirs {
		for _, name := range d.Names {
			covered[key{d.File, d.Line, name}] = true
			covered[key{d.File, d.Line + 1, name}] = true
		}
	}
	kept := diags[:0]
	for _, diag := range diags {
		pos := fset.Position(diag.Pos)
		if covered[key{pos.Filename, pos.Line, diag.Analyzer}] {
			continue
		}
		kept = append(kept, diag)
	}
	return kept
}
