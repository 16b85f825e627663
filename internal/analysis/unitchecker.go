package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
)

// vetConfig is the JSON configuration the go command writes for a
// vettool invocation (`go vet -vettool=omsvet`): one package's file
// set plus the compiler export data of its dependencies. Only the
// fields this driver consumes are declared.
type vetConfig struct {
	ID          string
	ImportPath  string
	Dir         string
	GoFiles     []string
	NonGoFiles  []string
	ImportMap   map[string]string
	PackageFile map[string]string
	GoVersion   string

	VetxOnly   bool
	VetxOutput string

	SucceedOnTypecheckFailure bool
}

// RunUnitchecker implements the `go vet -vettool` protocol for one
// package: it parses the config at cfgPath, typechecks the package
// against the export data the go command supplied, runs the analyzers
// and prints surviving findings to w in the file:line:col form the go
// command relays. The returned exit code follows the protocol: 0 clean,
// nonzero when findings or errors must fail the vet run.
//
// No analyzer exchanges facts across packages, so a dependency
// invocation (VetxOnly) has nothing to do, and every run writes an
// empty VetxOutput for the go command to cache.
func RunUnitchecker(cfgPath string, analyzers []*Analyzer, w io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(w, "omsvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(w, "omsvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(w, "omsvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// softFail: how to exit on parse/typecheck trouble, honoring
	// SucceedOnTypecheckFailure.
	softFail := func(err error) int {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(w, "omsvet: %v\n", err)
		return 1
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return softFail(err)
		}
		files = append(files, f)
	}

	// The export-data importer reads each dependency from the compiled
	// package files the go command listed in the config.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:    importer.ForCompiler(fset, "gc", lookup),
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		FakeImportC: true,
		GoVersion:   cfg.GoVersion,
		Error:       func(error) {},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return softFail(fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err))
	}

	diags, err := RunAnalyzers(fset, files, pkg, info, analyzers)
	if err != nil {
		fmt.Fprintf(w, "omsvet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
