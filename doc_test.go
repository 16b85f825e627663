package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obsv"
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
	// typeMember matches Type.Member where no package qualifies Type.
	typeMember = regexp.MustCompile(`(?:^|[^.\w])([A-Z][A-Za-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)\b`)
	// metricFamily matches an oms_* metric name.
	metricFamily = regexp.MustCompile(`\boms_[a-z0-9_]+`)
	// testName matches a test, benchmark or fuzz target name; testDecl
	// its declaration in a _test.go file.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	// flagSpan matches a span that starts with a command-line flag;
	// flagDecl a flag package call registering one.
	flagSpan = regexp.MustCompile(`^-([A-Za-z][A-Za-z0-9-]*)`)
	flagDecl = regexp.MustCompile(`\bflag\.[A-Z][A-Za-z0-9]*\((?:&[A-Za-z0-9_.]+, *)?"([a-z0-9-]+)"`)
	// stageLabel matches a stage="name" label, in code blocks too;
	// stageRow a stage table row's back-quoted first cell.
	stageLabel = regexp.MustCompile(`stage="([^"]*)"`)
	stageRow   = regexp.MustCompile("(?m)^\\| `([^`]+)` +\\|")
)

// toolchainFlags are the go command's flags the docs may quote.
var toolchainFlags = map[string]bool{
	"race": true, "cpu": true, "benchtime": true, "benchmem": true, "bench": true,
	"tags": true, "run": true, "count": true, "fuzz": true, "fuzztime": true,
	"cpuprofile": true, "memprofile": true, "timeout": true, "short": true, "v": true,
}

// modulePackage is what the docs may name in one of this module's
// packages: its package-level identifiers, and Type.Member for every
// method and struct field.
type modulePackage map[string]bool

// loadModulePackages parses every non-test Go file in the module and
// indexes the declared names by package name; it also returns the
// non-test source, the test, benchmark and fuzz target names the
// _test.go files declare, and the flags the commands under cmd/ and
// bench/ register.
func loadModulePackages(t *testing.T) (map[string]modulePackage, string, map[string]bool, map[string]bool) {
	t.Helper()
	pkgs := map[string]modulePackage{}
	tests := map[string]bool{}
	flags := map[string]bool{}
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
		if strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "bench/") {
			for _, m := range flagDecl.FindAllSubmatch(data, -1) {
				flags[string(m[1])] = true
			}
		}
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
	return pkgs, src.String(), tests, flags
}

// TestDocsNameLiveCode fails when README.md or DESIGN.md back-quotes a
// pkg.Identifier of this module, a Type.Member of a type the module
// declares, an oms_* metric family, a Test, Benchmark or Fuzz name, or
// a -flag that the code no longer has (a -flag may also be one of the
// go command's): a rename or a deletion must take its prose along.
func TestDocsNameLiveCode(t *testing.T) {
	pkgs, src, tests, flags := loadModulePackages(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, stale := range staleNames(doc, string(data), pkgs, src, tests, flags) {
			t.Error(stale)
		}
	}
}

// TestDocsNameLiveCodeCatchesTypeMembers plants spans in a document:
// a member the module's type lacks is reported, one of a type declared
// outside the module is not.
func TestDocsNameLiveCodeCatchesTypeMembers(t *testing.T) {
	pkgs, src, tests, flags := loadModulePackages(t)
	text := "`Encoder.Accumulate`, `Params.Accel`, `Engine.Search(ctx, queries, trace)` and `Source64.Uint64`"
	stale := staleNames("planted", text, pkgs, src, tests, flags)
	if len(stale) != 1 || !strings.Contains(stale[0], "Encoder.Accumulate") {
		t.Fatalf("stale names %q, want Encoder.Accumulate alone", stale)
	}
}

// staleNames lists what the inline code spans of one document's text
// name that the code does not have, one message each.
func staleNames(doc, text string, pkgs map[string]modulePackage, src string, tests, flags map[string]bool) []string {
	var stale []string
	report := func(format string, args ...any) { stale = append(stale, fmt.Sprintf(format, args...)) }
	for _, span := range inlineCode.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1) {
		for _, m := range qualifiedIdent.FindAllStringSubmatch(span[1], -1) {
			names, ok := pkgs[m[1]]
			if !ok {
				continue
			}
			if !names[m[2]] {
				report("%s: `%s` names %s.%s, which package %s does not declare", doc, span[1], m[1], m[2], m[1])
			} else if m[3] != "" && !names[m[2]+"."+m[3]] && isTypeWithMembers(names, m[2]) {
				report("%s: `%s` names %s.%s.%s, which type %s.%s does not have", doc, span[1], m[1], m[2], m[3], m[1], m[2])
			}
		}
		// A type may be declared in several packages (core.Engine,
		// annsolo.Engine): the member must be one of any of them.
		for _, m := range typeMember.FindAllStringSubmatch(span[1], -1) {
			declared, member := false, false
			for _, names := range pkgs {
				if names[m[1]] && isTypeWithMembers(names, m[1]) {
					declared = true
					member = member || names[m[1]+"."+m[2]]
				}
			}
			if declared && !member {
				report("%s: `%s` names %s.%s, which no type %s of the module has", doc, span[1], m[1], m[2], m[1])
			}
		}
		for _, metric := range metricFamily.FindAllString(span[1], -1) {
			if !strings.Contains(src, `"`+metric+`"`) {
				report("%s: `%s` names metric family %s, which no code emits", doc, span[1], metric)
			}
		}
		for _, name := range testName.FindAllString(span[1], -1) {
			if !tests[name] {
				report("%s: `%s` names %s, which no _test.go file declares", doc, span[1], name)
			}
		}
		if m := flagSpan.FindStringSubmatch(span[1]); m != nil && !flags[m[1]] && !toolchainFlags[m[1]] {
			report("%s: `%s` names flag -%s, which no command under cmd/ or bench/ registers", doc, span[1], m[1])
		}
	}
	return stale
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

// TestDocsNameLiveStages fails when README.md or DESIGN.md quotes a
// stage="X" label that names no obsv stage, or when DESIGN.md §10's
// stage table does not list exactly obsv's stages, in order.
func TestDocsNameLiveStages(t *testing.T) {
	var stages []string
	live := map[string]bool{}
	for s := obsv.Stage(0); s < obsv.NumStages; s++ {
		stages = append(stages, s.String())
		live[s.String()] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range stageLabel.FindAllStringSubmatch(string(data), -1) {
			if !live[m[1]] {
				t.Errorf("%s: %s names stage %q, which obsv does not have", doc, m[0], m[1])
			}
		}
	}
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(data)
	start := strings.Index(section, "\n## 10. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 10")
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var table []string
	for _, m := range stageRow.FindAllStringSubmatch(section, -1) {
		table = append(table, m[1])
	}
	if strings.Join(table, " ") != strings.Join(stages, " ") {
		t.Errorf("DESIGN.md §10 stage table lists %q, obsv's stages are %q", table, stages)
	}
}
