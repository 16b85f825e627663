// Package mmapwrite enforces the mmap read-only contract: word slices
// that alias the memory-mapped index file must never be written
// through, and must not escape into structures whose lifetime the
// index's Close does not control.
//
// The packed word block returned by libindex.Index.Words (and carried
// per partition by the PartitionSet of a PartitionedIndex or an Opened
// path) is a PROT_READ, MAP_SHARED view of the index file on unix. A write through it does
// not fail politely at compile time — it SIGSEGVs at best, and on a
// platform where the fallback copying loader was in effect instead, it
// silently corrupts the store every serving generation shares.
//
// The analyzer taint-tracks, per function and flow-insensitively:
//
//   - results of the source calls (Words, PartitionSet) and
//     slices/elements derived from them by assignment, reslicing and
//     indexing;
//   - the packed-block argument of the aliasing constructors
//     (hdc.NewShardedSearcherFromPacked, core.NewExactEngineFromPacked,
//     core.NewPartitionedEngine) — after that call the block is
//     shared with a searcher, so the caller must not write it either;
//   - inside those constructors' own bodies, the block parameter
//     itself.
//
// It reports element writes (t[i] = x, t[i] op= x, t[i]++), copy with
// a tainted destination, append to a tainted slice (append can write
// the mapping through spare capacity), and escapes: storing a tainted
// slice into a struct field or composite literal. An escape that is
// the designed ownership transfer — the searcher aliasing its block —
// is annotated //oms:allow(mmapwrite) at the site, keeping the
// exception auditable.
package mmapwrite

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the mmapwrite pass.
var Analyzer = &analysis.Analyzer{
	Name: "mmapwrite",
	Doc:  "report writes to, and escapes of, slices aliasing the mmap-backed packed word block",
	Run:  run,
}

func init() { analysis.RegisterName(Analyzer.Name) }

// FactReturnsMmapView is the cross-package fact exported for every
// function proven to return a view of the mapping. Dependent packages
// (in either driver) treat calls to such functions exactly like the
// hardcoded source calls, so a helper wrapping Index.Words does not
// launder the taint away at a package boundary.
const FactReturnsMmapView = "returns-mmap-view"

// sourceCalls are the API points whose results alias the mapping,
// keyed by types.Func.FullName.
var sourceCalls = map[string]bool{
	"(*repro/internal/libindex.Index).Words":                   true,
	"(*repro/internal/libindex.PartitionedIndex).PartitionSet": true,
	"(*repro/internal/libindex.Opened).PartitionSet":           true,
}

// sinkParams maps the aliasing constructors to the indices of the
// packed-block arguments they retain.
var sinkParams = map[string][]int{
	"repro/internal/hdc.NewShardedSearcherFromPacked": {0},
	"repro/internal/core.NewExactEngineFromPacked":    {2},
	"repro/internal/core.NewPartitionedEngine":        {1},
}

// IsViewSource reports whether call yields a view of the mapping: one
// of the seed source calls above, or a function some earlier run — of
// this package or a dependency — proved to return one via exported
// facts. Shared with the unmaplife analyzer, which tracks the same
// views across Close.
func IsViewSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	name := CalleePath(pass, call)
	if name == "" {
		return false
	}
	return sourceCalls[name] || pass.HasFact(name, FactReturnsMmapView)
}

// ViewConstructorArgs returns the indices of call's arguments retained
// by an aliasing constructor (the packed block a searcher keeps), or
// nil when call is not one.
func ViewConstructorArgs(pass *analysis.Pass, call *ast.CallExpr) []int {
	return sinkParams[CalleePath(pass, call)]
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var fnObj *types.Func
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					fnObj = obj
				}
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body, fnObj)
			}
			return true
		})
	}
	return nil
}

// checkFunc taint-tracks one function body and reports violations.
// Nested function literals are visited by run's walk on their own (a
// closure writing a captured tainted slice is missed — the analysis is
// per-literal by design, documented above).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, fnObj *types.Func) {
	t := &tracker{pass: pass, tainted: map[types.Object]bool{}}

	// Inside an aliasing constructor, the block parameter is itself a
	// shared slice from the first line.
	if fnObj != nil {
		if idxs, ok := sinkParams[fnObj.FullName()]; ok {
			sig := fnObj.Type().(*types.Signature)
			for _, i := range idxs {
				if i < sig.Params().Len() {
					t.tainted[sig.Params().At(i)] = true
				}
			}
		}
	}

	// Fixpoint over assignments: taint flows through :=, =, reslicing
	// and indexing until the set stops growing.
	for {
		before := len(t.tainted)
		walkShallow(body, func(n ast.Node) {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if len(x.Lhs) != len(x.Rhs) {
						break
					}
					if t.taintedExpr(rhs) {
						if ident, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
							t.taintIdent(ident)
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range x.Values {
					if i < len(x.Names) && t.taintedExpr(v) {
						t.taintIdent(x.Names[i])
					}
				}
			case *ast.CallExpr:
				// Passing a slice to an aliasing constructor shares it:
				// taint the argument variable for the rest of the function.
				if idxs, ok := sinkParams[CalleePath(pass, x)]; ok {
					for _, i := range idxs {
						if i < len(x.Args) {
							if ident, ok := ast.Unparen(x.Args[i]).(*ast.Ident); ok {
								t.taintIdent(ident)
							}
						}
					}
				}
			}
		})
		if len(t.tainted) == before {
			break
		}
	}

	// Fact export: a function returning a tainted expression hands a
	// live view to its callers — record that for dependent packages so
	// their mmapwrite/unmaplife runs treat calls to it as sources.
	if fnObj != nil {
		walkShallow(body, func(n ast.Node) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return
			}
			for _, res := range ret.Results {
				if t.taintedExpr(res) {
					pass.ExportFact(fnObj.FullName(), FactReturnsMmapView)
				}
			}
		})
	}

	// Violation walk.
	walkShallow(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && t.taintedExpr(idx.X) {
					pass.Reportf(lhs.Pos(),
						"write through a slice derived from the mmap-backed packed block (%s): the mapping is read-only and shared by every serving generation", describe(idx.X))
				}
			}
			for i, rhs := range x.Rhs {
				if len(x.Lhs) != len(x.Rhs) || !t.taintedExpr(rhs) {
					continue
				}
				if sel, ok := ast.Unparen(x.Lhs[i]).(*ast.SelectorExpr); ok {
					pass.Reportf(x.Pos(),
						"mmap-derived slice escapes into struct field %s, which can outlive the index Close that invalidates it", sel.Sel.Name)
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && t.taintedExpr(idx.X) {
				pass.Reportf(x.Pos(),
					"write through a slice derived from the mmap-backed packed block (%s): the mapping is read-only and shared by every serving generation", describe(idx.X))
			}
		case *ast.CallExpr:
			switch builtinName(pass, x) {
			case "copy":
				if len(x.Args) == 2 && t.taintedExpr(x.Args[0]) {
					pass.Reportf(x.Pos(),
						"copy into a slice derived from the mmap-backed packed block: the mapping is read-only")
				}
			case "append":
				if len(x.Args) > 0 && t.taintedExpr(x.Args[0]) {
					pass.Reportf(x.Pos(),
						"append to a slice derived from the mmap-backed packed block: spare capacity writes through the mapping")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if t.taintedExpr(val) {
					pass.Reportf(val.Pos(),
						"mmap-derived slice escapes into a composite literal, which can outlive the index Close that invalidates it")
				}
			}
		}
	})
}

// tracker is the per-function taint state.
type tracker struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool
}

func (t *tracker) taintIdent(ident *ast.Ident) {
	if obj := t.pass.TypesInfo.Defs[ident]; obj != nil {
		t.tainted[obj] = true
		return
	}
	if obj := t.pass.TypesInfo.Uses[ident]; obj != nil {
		t.tainted[obj] = true
	}
}

// taintedExpr reports whether e denotes (a view into) the shared
// packed block: a tainted variable, a reslice or element of one, or a
// direct source call.
func (t *tracker) taintedExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := t.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = t.pass.TypesInfo.Defs[x]
		}
		return obj != nil && t.tainted[obj]
	case *ast.SliceExpr:
		return t.taintedExpr(x.X)
	case *ast.IndexExpr:
		return t.taintedExpr(x.X)
	case *ast.CallExpr:
		if IsViewSource(t.pass, x) {
			return true
		}
		// A conversion keeps the backing array.
		if len(x.Args) == 1 {
			if tv, ok := t.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				return t.taintedExpr(x.Args[0])
			}
		}
	}
	return false
}

// CalleePath resolves a call to its types.Func full name
// ("pkg.Func" or "(*pkg.T).Method"), or "".
func CalleePath(pass *analysis.Pass, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// builtinName returns "copy"/"append" for calls to those builtins.
func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.TypesInfo.Uses[ident].(*types.Builtin); ok {
		return ident.Name
	}
	return ""
}

// describe renders a short name for the tainted base expression.
func describe(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SliceExpr:
		return describe(x.X)
	case *ast.IndexExpr:
		return describe(x.X)
	}
	return "block"
}

// walkShallow visits nodes without descending into nested function
// literals (each literal is analyzed as its own function).
func walkShallow(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(root) {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
