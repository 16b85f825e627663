package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses one file with comments, as the drivers do.
func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// diagAt builds a diagnostic for analyzer name on the given 1-based
// line of the parsed file.
func diagAt(fset *token.FileSet, name string, line int) Diagnostic {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return Diagnostic{Pos: pos, Analyzer: name, Message: "planted"}
}

func TestSuppressCoversOwnAndNextLine(t *testing.T) {
	RegisterName("suppresscheck")
	fset, files := parseSrc(t, `package p

//oms:allow(suppresscheck) justification
var a = 1
var b = 2
`)
	dirs, bad := CollectDirectives(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected validation findings: %+v", bad)
	}
	if len(dirs) != 1 || dirs[0].Line != 3 {
		t.Fatalf("directives = %+v, want one on line 3", dirs)
	}
	diags := []Diagnostic{
		diagAt(fset, "suppresscheck", 3), // directive's own line
		diagAt(fset, "suppresscheck", 4), // line below
		diagAt(fset, "suppresscheck", 5), // out of range: survives
		diagAt(fset, "othercheck", 4),    // other analyzer: survives
	}
	kept := Suppress(fset, diags, dirs)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	for _, d := range kept {
		pos := fset.Position(d.Pos)
		if d.Analyzer == "suppresscheck" && pos.Line != 5 {
			t.Errorf("suppresscheck diagnostic on line %d survived, want only line 5", pos.Line)
		}
	}
}

// registerShipped registers the analyzer cmd/omsvet links, as its
// package's init function does.
func registerShipped() { RegisterName("closeerr") }

func TestCollectDirectivesUnknownName(t *testing.T) {
	registerShipped()
	// genpin, atomicfield, hotalloc, mmapwrite and unmaplife were
	// analyzers once; a directive naming one now suppresses nothing and
	// must say so.
	fset, files := parseSrc(t, `package p

var a = 1 //oms:allow(bogus) typo
var b = 2 //oms:allow(closeerr,bogus2) one valid, one not
var c = 3 //oms:allow(genpin,atomicfield) deleted analyzers
var d = 4 //oms:allow(closeerr,hotalloc) one valid, one deleted
var e = 5 //oms:allow(mmapwrite) leftover of a deleted analyzer
var f = 6 //oms:allow(unmaplife) leftover of a deleted analyzer
`)
	dirs, bad := CollectDirectives(fset, files)
	if len(bad) != 7 {
		t.Fatalf("got %d validation findings, want 7: %+v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Analyzer != "omsvet" || !strings.Contains(d.Message, "unknown analyzer") {
			t.Errorf("unexpected validation finding %+v", d)
		}
	}
	// The valid names still suppress.
	if len(dirs) != 2 || len(dirs[0].Names) != 1 || dirs[0].Names[0] != "closeerr" ||
		len(dirs[1].Names) != 1 || dirs[1].Names[0] != "closeerr" {
		t.Fatalf("directives = %+v, want closeerr twice", dirs)
	}
}

func TestCollectDirectivesMalformed(t *testing.T) {
	fset, files := parseSrc(t, `package p

var a = 1 //oms:allow(unclosed
`)
	dirs, bad := CollectDirectives(fset, files)
	if len(dirs) != 0 {
		t.Fatalf("malformed directive parsed as valid: %+v", dirs)
	}
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "missing ')'") {
		t.Fatalf("got %+v, want one missing-')' finding", bad)
	}
}
