package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// fencedBlock matches a ``` code block; only inline code is checked.
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	// inlineCode matches one back-quoted span, which may wrap a line.
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// qualifiedIdent matches pkg.Ident, optionally followed by .Member.
	// Names with an underscore are bench metric names (hdc.encode_us),
	// not identifiers: the repo's Go names have none.
	qualifiedIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)\b(?:\.([A-Za-z][A-Za-z0-9]*)\b)?`)
	// metricFamily matches an oms_* metric name.
	metricFamily = regexp.MustCompile(`\boms_[a-z0-9_]+`)
	// testName matches a test, benchmark or fuzz target name; testDecl
	// its declaration in a _test.go file.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// modulePackage is what the docs may name in one of this module's
// packages: its package-level identifiers, and Type.Member for every
// method and struct field.
type modulePackage map[string]bool

// loadModulePackages parses every non-test Go file in the module and
// indexes the declared names by package name; it also returns the
// non-test source and the test, benchmark and fuzz target names the
// _test.go files declare.
func loadModulePackages(t *testing.T) (map[string]modulePackage, string, map[string]bool) {
	t.Helper()
	pkgs := map[string]modulePackage{}
	tests := map[string]bool{}
	var src strings.Builder
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllSubmatch(data, -1) {
				tests[string(m[1])] = true
			}
			return nil
		}
		src.Write(data)
		f, err := parser.ParseFile(fset, path, data, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := pkgs[f.Name.Name]
		if names == nil {
			names = modulePackage{}
			pkgs[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
					continue
				}
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					names[id.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									names[spec.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A command is named in the docs by its directory, not "main".
	delete(pkgs, "main")
	return pkgs, src.String(), tests
}

// TestDocsNameLiveCode fails when README.md or DESIGN.md back-quotes a
// pkg.Identifier of this module, an oms_* metric family, or a Test,
// Benchmark or Fuzz name that the code no longer has: a rename or a
// deletion must take its prose along.
func TestDocsNameLiveCode(t *testing.T) {
	pkgs, src, tests := loadModulePackages(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString(string(data), "")
		for _, span := range inlineCode.FindAllStringSubmatch(text, -1) {
			for _, m := range qualifiedIdent.FindAllStringSubmatch(span[1], -1) {
				names, ok := pkgs[m[1]]
				if !ok {
					continue
				}
				if !names[m[2]] {
					t.Errorf("%s: `%s` names %s.%s, which package %s does not declare", doc, span[1], m[1], m[2], m[1])
				} else if m[3] != "" && !names[m[2]+"."+m[3]] && isTypeWithMembers(names, m[2]) {
					t.Errorf("%s: `%s` names %s.%s.%s, which type %s.%s does not have", doc, span[1], m[1], m[2], m[3], m[1], m[2])
				}
			}
			for _, metric := range metricFamily.FindAllString(span[1], -1) {
				if !strings.Contains(src, `"`+metric+`"`) {
					t.Errorf("%s: `%s` names metric family %s, which no code emits", doc, span[1], metric)
				}
			}
			for _, name := range testName.FindAllString(span[1], -1) {
				if !tests[name] {
					t.Errorf("%s: `%s` names %s, which no _test.go file declares", doc, span[1], name)
				}
			}
		}
	}
}

// isTypeWithMembers reports whether name has any method or field
// indexed, i.e. whether a Name.Member reference to it can be checked.
func isTypeWithMembers(names modulePackage, name string) bool {
	for k := range names {
		if strings.HasPrefix(k, name+".") {
			return true
		}
	}
	return false
}
