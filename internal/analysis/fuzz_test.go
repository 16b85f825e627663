package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzDirectiveParser throws arbitrary comment text at the //oms:allow
// parser. The directives ride on real source comments, so the harness
// embeds each input as line comments in an otherwise fixed file,
// parses it, and checks the parser invariants:
//
//   - no panic on any input;
//   - every parsed directive names only registered analyzers (the one
//     cmd/omsvet ships), with a position inside the file;
//   - a directive with an unclosed '(' or an unknown name — a deleted
//     analyzer's included — produces a validation diagnostic, never a
//     silent Directive.
func FuzzDirectiveParser(f *testing.F) {
	seeds := []string{
		"//oms:allow(mmapwrite) tier repack owns this block", // deleted analyzer
		"//oms:allow(genpin,atomicfield) deleted analyzers: unknown",
		"//oms:allow(unmaplife)", // deleted analyzer
		"//oms:allow(closeerr,hotalloc) one valid, one deleted",
		"//oms:allow(nosuchanalyzer) typo",
		"//oms:allow(mmapwrite", // missing ')'
		"//oms:allow()",
		"//oms:allow(,,)",
		"//oms:allow( mmapwrite , closeerr ) spaced",
		"//oms:allowance is not a directive",
		"//oms:allow(closeerr) teardown of a doomed conn",
		"//oms:allow(closeerr)",
		"//oms:allow(closeerr)\ttab justification",
		"//oms:allow(closeerr,closeerr) repeated name",
		"//oms:allow(Closeerr) names are case-sensitive",
		"//oms:allow(closeerr) x //oms:allow(unmaplife) y", // one directive: the second is justification
		"// plain comment",
		"//oms:allow(mmapwrite\x00) NUL in name",
		"//oms:allow(мма) unicode name",
		"//oms:allow(closeerr) — unicode justification",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	registerShipped()

	f.Fuzz(func(t *testing.T, input string) {
		// Newlines would break out of the line comment; keep each input
		// line a separate comment so multi-line inputs still embed.
		var sb strings.Builder
		sb.WriteString("package p\n")
		for _, line := range strings.Split(input, "\n") {
			line = strings.TrimSuffix(line, "\r")
			if strings.ContainsAny(line, "\x00") {
				// The parser rejects NUL in source; directive text with
				// NUL cannot occur in a loadable file.
				continue
			}
			sb.WriteString("// fuzz\n")
			if !strings.HasPrefix(line, "//") {
				line = "//" + line
			}
			sb.WriteString(line + "\n")
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", sb.String(), parser.ParseComments)
		if err != nil {
			return // not valid source: nothing for the directive parser to see
		}
		files := []*ast.File{file}

		dirs, badDirs := CollectDirectives(fset, files)
		for _, d := range dirs {
			if len(d.Names) == 0 {
				t.Fatalf("directive at %s:%d parsed with no names", d.File, d.Line)
			}
			for _, name := range d.Names {
				if !known[name] {
					t.Fatalf("directive at %s:%d names unregistered analyzer %q", d.File, d.Line, name)
				}
			}
			if !d.Pos.IsValid() {
				t.Fatalf("directive with invalid position: %+v", d)
			}
		}
		for _, b := range badDirs {
			if b.Analyzer != "omsvet" || b.Message == "" {
				t.Fatalf("validation diagnostic malformed: %+v", b)
			}
		}
	})
}
