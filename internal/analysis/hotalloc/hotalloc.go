// Package hotalloc enforces the zero-allocation discipline of the
// scoring kernels: a function annotated `//oms:hotpath` in its doc
// comment must not allocate in steady state.
//
// The xorPopRows kernel wrapper and its Go reference, the ladder
// completions and the serve flush loop run per query batch at full
// occupancy — an allocation there is not a cost, it is a GC treadmill
// that turns the cascade's microsecond budget into millisecond pauses.
// The benchmarks gate allocs/op dynamically (testing.AllocsPerRun;
// -benchmem in CI); this analyzer is the static side of the same
// contract, so a regression is caught at vet time, on every build. The
// kernel's one ISA variant (hdc's AVX-512 assembly) is a body-less
// declaration: it cannot allocate and there is nothing to walk, so the
// analyzer skips it and checks the Go wrapper that dispatches to it.
//
// Inside an annotated function the analyzer flags every construct that
// allocates on Go's managed heap:
//
//   - closure, map and slice literals, &T{...}, new(T);
//   - make, unless guarded by a capacity check (`if cap(buf) < n {
//     buf = make(...) }` — the accepted grow-on-demand idiom that
//     amortizes to zero);
//   - append whose destination is not provably a reused scratch
//     buffer (some definition reslices to [:0] or makes with capacity;
//     every other definition derives from the same buffer);
//   - defer inside a loop (one deferred frame per iteration);
//   - interface conversions and boxing of concrete values — as call
//     arguments, assignments, returns and explicit conversions.
//
// The analysis is intraprocedural and does not descend into nested
// function literals (the literal itself is already a finding). A
// deliberate, measured exception — e.g. the amortized growth inside a
// pooled scratch helper — is annotated `//oms:allow(hotalloc)` with a
// justification, keeping the exception auditable.
package hotalloc

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "report heap allocations in functions annotated //oms:hotpath",
	Run:  run,
}

func init() { analysis.RegisterName(Analyzer.Name) }

// hotpathPrefix marks a function as a zero-allocation hot path.
const hotpathPrefix = "//oms:hotpath"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// isHotpath reports whether the function's doc comment carries the
// //oms:hotpath directive.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if !strings.HasPrefix(c.Text, hotpathPrefix) {
			continue
		}
		rest := c.Text[len(hotpathPrefix):]
		if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
			return true
		}
	}
	return false
}

type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
	name string
	// defs collects every assignment RHS per object, for the append
	// destination rule.
	defs map[types.Object][]ast.Expr
	// guarded holds the position ranges of if-bodies whose condition
	// checks cap/len — make inside them is the grow-on-demand idiom.
	guarded [][2]token.Pos
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	c := &checker{pass: pass, fn: fn, name: fn.Name.Name, defs: map[types.Object][]ast.Expr{}}

	walkShallow(fn.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				for _, lhs := range x.Lhs {
					if obj := c.lhsObj(lhs); obj != nil {
						c.defs[obj] = append(c.defs[obj], nil) // tuple: origin unknown
					}
				}
				return
			}
			for i, lhs := range x.Lhs {
				if obj := c.lhsObj(lhs); obj != nil {
					c.defs[obj] = append(c.defs[obj], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if obj := c.lhsObj(name); obj != nil {
					var rhs ast.Expr
					if len(x.Values) == len(x.Names) {
						rhs = x.Values[i]
					}
					c.defs[obj] = append(c.defs[obj], rhs)
				}
			}
		case *ast.IfStmt:
			if condChecksCapacity(pass, x.Cond) {
				c.guarded = append(c.guarded, [2]token.Pos{x.Body.Pos(), x.Body.End()})
			}
		}
	})

	c.walk(fn.Body, 0)
}

// walk visits the body flagging allocation sites; loopDepth tracks
// enclosing for/range statements for the defer rule.
func (c *checker) walk(n ast.Node, loopDepth int) {
	switch x := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		c.report(x.Pos(), "closure literal forces an allocation (hoist it out of the hot path)")
		return // the literal's body is not this hot path
	case *ast.ForStmt:
		c.walk(x.Init, loopDepth)
		c.walk(x.Cond, loopDepth)
		c.walk(x.Post, loopDepth)
		c.walk(x.Body, loopDepth+1)
		return
	case *ast.RangeStmt:
		c.walk(x.X, loopDepth)
		c.walk(x.Body, loopDepth+1)
		return
	case *ast.DeferStmt:
		if loopDepth > 0 {
			c.report(x.Pos(), "defer inside a loop allocates a deferred frame per iteration")
		}
		c.walk(x.Call, loopDepth)
		return
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				c.report(x.Pos(), "&composite literal escapes to the heap")
				// still walk inside for nested allocs
			}
		}
	case *ast.CompositeLit:
		if tv, ok := c.pass.TypesInfo.Types[x]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				c.report(x.Pos(), "slice literal allocates")
			case *types.Map:
				c.report(x.Pos(), "map literal allocates")
			}
		}
	case *ast.CallExpr:
		c.checkCall(x)
	case *ast.AssignStmt:
		c.checkAssignBoxing(x)
	case *ast.ValueSpec:
		if lt := c.pass.TypesInfo.TypeOf(x.Type); lt != nil && isInterface(lt) {
			for _, v := range x.Values {
				if c.boxes(v) {
					c.report(v.Pos(), "declaration boxes a concrete value into an interface")
				}
			}
		}
	case *ast.ReturnStmt:
		c.checkReturnBoxing(x)
	}
	// Generic descent.
	for _, child := range children(n) {
		c.walk(child, loopDepth)
	}
}

// checkCall handles builtins (make/new/append), conversions and
// boxing call arguments.
func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if !c.inGuardedRange(call.Pos()) {
					c.report(call.Pos(), "make allocates on every call (guard it behind a cap check to grow a reused buffer on demand)")
				}
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				c.checkAppend(call)
			}
			return
		}
	}

	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	// Explicit conversion: T(x) with T an interface boxes x.
	if tv.IsType() {
		if isInterface(tv.Type) && len(call.Args) == 1 && c.boxes(call.Args[0]) {
			c.report(call.Pos(), "conversion to interface boxes the value")
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				if i == params.Len()-1 {
					pt = params.At(params.Len() - 1).Type()
				}
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && isInterface(pt) && c.boxes(arg) {
			c.report(arg.Pos(), "argument boxes a concrete value into an interface parameter")
		}
	}
}

// checkAppend applies the scratch-reuse rule to an append destination.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	id, ok := dst.(*ast.Ident)
	if !ok {
		// Appending straight to a field or element: origin unknowable
		// intraprocedurally — require the ident-scratch idiom.
		c.report(call.Pos(), "append destination is not a provably reused scratch buffer (reslice a reusable scratch to [:0] first)")
		return
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	if obj == nil || !c.appendTargetOK(obj, id.Name) {
		c.report(call.Pos(), "append to %s may grow an unpreallocated buffer (reslice a reused scratch to [:0], or make it with capacity behind a cap guard)", id.Name)
	}
}

// appendTargetOK reports whether every definition of obj is consistent
// with a reused scratch buffer: at least one [:0]-style reslice or a
// make-with-capacity, and nothing else but self-appends and reslices.
func (c *checker) appendTargetOK(obj types.Object, name string) bool {
	defs := c.defs[obj]
	if len(defs) == 0 {
		return false // parameter or captured: caller-owned, unknown capacity
	}
	hasPrealloc := false
	for _, rhs := range defs {
		switch x := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
			if isZeroLen(c.pass, x) {
				hasPrealloc = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						hasPrealloc = true
						continue
					case "append":
						if len(x.Args) > 0 {
							if aid, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok && aid.Name == name {
								continue // self-append
							}
						}
						return false
					}
					return false
				}
			}
			return false
		default:
			return false
		}
	}
	return hasPrealloc
}

// checkAssignBoxing flags concrete values assigned to interface-typed
// destinations.
func (c *checker) checkAssignBoxing(x *ast.AssignStmt) {
	if len(x.Lhs) != len(x.Rhs) {
		return
	}
	for i, lhs := range x.Lhs {
		if x.Tok == token.DEFINE {
			continue // the variable adopts the concrete type
		}
		lt := c.pass.TypesInfo.TypeOf(lhs)
		if lt != nil && isInterface(lt) && c.boxes(x.Rhs[i]) {
			c.report(x.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
		}
	}
}

// checkReturnBoxing flags concrete values returned as interface
// results.
func (c *checker) checkReturnBoxing(x *ast.ReturnStmt) {
	obj, ok := c.pass.TypesInfo.Defs[c.fn.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(x.Results) {
		return
	}
	for i, res := range x.Results {
		if isInterface(results.At(i).Type()) && c.boxes(res) {
			c.report(res.Pos(), "return boxes a concrete value into an interface result")
		}
	}
}

// boxes reports whether e is a concrete, non-pointer-shaped value
// whose conversion to an interface allocates.
func (c *checker) boxes(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.Invalid
	}
	return true // struct, array, slice, string-backed named types
}

func (c *checker) inGuardedRange(pos token.Pos) bool {
	for _, r := range c.guarded {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	prefix := "hot path " + c.name + " must be allocation-free: "
	c.pass.Reportf(pos, prefix+format, args...)
}

func (c *checker) lhsObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// condChecksCapacity reports whether the condition mentions a cap() or
// len() call — the shape of a grow-on-demand guard.
func condChecksCapacity(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				if id.Name == "cap" || id.Name == "len" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isZeroLen matches s[:0] and s[:0:n] — the scratch-reuse reslice.
func isZeroLen(pass *analysis.Pass, s *ast.SliceExpr) bool {
	if s.High == nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[s.High]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 0
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// children returns the immediate child nodes of n, for the manual
// descent that tracks loop depth.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	if n == nil {
		return nil
	}
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// walkShallow visits nodes without descending into nested function
// literals.
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
