package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions and methods in internal/
// that only tests call, each with the reason it stays exported.
var testOnlyExports = map[string]string{
	"rram.Crossbar.IdealMVM":      "the noiseless reference the rram and accel tests compare the crossbar against",
	"serve.Server.SearchPrepared": "conformance's served leg submits planted hypervectors, which no spectrum encodes to",
	"experiments.TestOptions":     "the small-scale fixture the tests of four packages share",
}

// listedPackage is what go list -json reports of one package.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
}

// TestExportsHaveProductionCallers fails on each exported function, and
// each method of an exported type, in internal/ that no non-test code
// uses: an export only tests call is code the program does not need.
// Uses are resolved by type, over every non-test package of the module
// (cmd/, bench/, examples/ and the bench_shims.go files among them), so
// that BinaryHV.Equal is not mistaken for bytes.Equal. A use counts
// when it is outside the function's own body and inside code that is
// itself used, so a chain of test-only exports is reported whole. A
// method is also used when it makes its type satisfy an interface the
// non-test code names, error and fmt.Stringer included.
func TestExportsHaveProductionCallers(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	exportFiles := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportFiles[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return gc.Import(path)
	})
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	// candidates maps each export under internal/ to its name; helpers
	// are the unexported top-level functions, through which a chain of
	// test-only exports may pass; callers maps a function to the
	// functions whose bodies use it (nil for a package-level
	// declaration).
	candidates := map[*types.Func]string{}
	helpers := map[*types.Func]bool{}
	callers := map[*types.Func][]*types.Func{}
	// asserted maps an interface literal that a type assertion names to
	// what the asserted value implements: the literal and the value's
	// own interface. An io.Reader asserted to interface{ Len() int }
	// does not make every type with a Len method a reader.
	asserted := map[*types.Interface]*types.Interface{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exportFiles[p.ImportPath] = p.Export
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		internal := strings.Contains(p.ImportPath+"/", "/internal/")
		for _, f := range files {
			for _, decl := range f.Decls {
				var from *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					from = info.Defs[fd.Name].(*types.Func)
					if name := exportName(p.Name, fd); internal && name != "" {
						candidates[from] = name
					} else if fd.Recv == nil && !fd.Name.IsExported() && fd.Name.Name != "init" && fd.Name.Name != "main" {
						helpers[from] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok && fn.Origin() != from {
							callers[fn.Origin()] = append(callers[fn.Origin()], from)
						}
					case *ast.TypeAssertExpr:
						if lit, ok := types.Unalias(info.TypeOf(n.Type)).(*types.Interface); ok {
							asserted[lit] = types.NewInterfaceType(nil, []types.Type{info.TypeOf(n.X), lit}).Complete()
						}
					}
					return true
				})
			}
		}
	}

	// Start from every candidate and helper unused and keep those with
	// no caller outside the set, until nothing changes.
	ifaces := namedInterfaces(info, imp, asserted)
	dead := map[*types.Func]bool{}
	for fn := range candidates {
		dead[fn] = !satisfiesNamedInterface(fn, ifaces)
	}
	for fn := range helpers {
		dead[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for fn, d := range dead {
			if !d {
				continue
			}
			for _, c := range callers[fn] {
				if c == nil || !dead[c] {
					dead[fn], changed = false, true
					break
				}
			}
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for fn, name := range candidates {
		if dead[fn] && testOnlyExports[name] == "" {
			pos := fset.Position(fn.Pos())
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = rel
			}
			unused = append(unused, fmt.Sprintf("%s: %s", pos, name))
		}
		if !dead[fn] && testOnlyExports[name] != "" {
			t.Errorf("%s is on testOnlyExports but non-test code uses it: take it off the list", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but only tests use it: delete it, or make it a helper in the tests that use it", u)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportName is pkg.Func for an exported function and pkg.Type.Method
// for an exported method of an exported type, else "".
func exportName(pkg string, fd *ast.FuncDecl) string {
	if !fd.Name.IsExported() {
		return ""
	}
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
		return pkg + "." + id.Name + "." + fd.Name.Name
	}
	return ""
}

// namedInterfaces is every interface with methods that the checked code
// names: the type of an expression, a parameter of a function it
// calls, error and fmt.Stringer, with an asserted interface literal
// replaced by its entry in asserted.
func namedInterfaces(info *types.Info, imp types.Importer, asserted map[*types.Interface]*types.Interface) []*types.Interface {
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if both := asserted[iface]; both != nil {
			iface = both
		}
		if ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
			seen[iface] = true
		}
	}
	add(types.Universe.Lookup("error").Type())
	if fmtPkg, err := imp.Import("fmt"); err == nil {
		add(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, tv := range info.Types {
		add(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				add(sig.Params().At(i).Type())
			}
		}
	}
	var ifaces []*types.Interface
	for iface := range seen {
		ifaces = append(ifaces, iface)
	}
	return ifaces
}

// satisfiesNamedInterface reports whether method fn is one through
// which its receiver's type implements one of ifaces.
func satisfiesNamedInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
	}
	return false
}
