package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one typechecked fixture package.
type Package struct {
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader typechecks analysistest fixtures from source, resolving their
// dependency graph with `go list -json -deps` — no compiler export data
// and no network, so it works identically in CI and sandboxes.
// Dependencies arrive from `go list` in topological order, so each
// package typechecks against the already checked *types.Package of its
// imports.
type Loader struct {
	// Dir is the directory `go list` runs in (any directory inside the
	// module; "" = current directory).
	Dir string

	Fset *token.FileSet
	pkgs map[string]*types.Package // typechecked, by resolved import path
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{Dir: dir, Fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// golist runs `go list -json` with args and decodes the package
// stream. CGO is disabled so every listed package has a pure-Go file
// set the source typechecker can handle.
func (l *Loader) golist(args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// LoadFixtureDir typechecks every .go file in dir as one package (the
// analysistest entry point). The fixture's imports — standard library
// or this module's packages alike — are resolved with a `go list
// -deps` over exactly the paths the fixture names, then typechecked
// from source like any other dependency.
func (l *Loader) LoadFixtureDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if path != "unsafe" {
				imports[path] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := l.golist(append([]string{"-deps"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Error != nil {
				return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
			}
			if err := l.check(lp); err != nil {
				return nil, err
			}
		}
	}
	return l.typecheck("fixture/"+files[0].Name.Name, files, nil, true)
}

// check parses and typechecks one listed dependency, memoizing by
// import path. Dependencies keep no comments and no type-use maps.
func (l *Loader) check(lp *listedPackage) error {
	if lp.ImportPath == "unsafe" {
		l.pkgs["unsafe"] = types.Unsafe
		return nil
	}
	if _, done := l.pkgs[lp.ImportPath]; done {
		return nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	_, err := l.typecheck(lp.ImportPath, files, lp.ImportMap, false)
	return err
}

// typecheck runs go/types over one parsed package; root (the fixture
// itself) keeps the type-use maps the analyzers read.
func (l *Loader) typecheck(pkgPath string, files []*ast.File, importMap map[string]string, root bool) (*Package, error) {
	var info *types.Info
	if root {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
	}
	var firstErr error
	conf := types.Config{
		Importer:    &mapImporter{l: l, importMap: importMap},
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil && firstErr != nil {
		err = firstErr
	}
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", pkgPath, err)
	}
	l.pkgs[pkgPath] = tpkg
	return &Package{Files: files, Types: tpkg, TypesInfo: info}, nil
}

// mapImporter resolves imports against the loader's already checked
// packages, through the importing package's ImportMap (which carries
// std-vendor rewrites and `go list -test` variant bindings).
type mapImporter struct {
	l         *Loader
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if p, ok := m.l.pkgs[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not in dependency graph", path)
}
