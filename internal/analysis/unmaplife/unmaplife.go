// Package unmaplife enforces the mmap lifetime invariant: no view
// outlives its generation's Close.
//
// Index.Close munmaps the file (and since the runtime poisoning in
// libindex, zero-lengths the words view), so any slice derived from
// Index.Words / PartitionSet —
// directly, through reslicing/indexing/conversion, through one of the
// aliasing constructors (a searcher built by NewShardedSearcherFromPacked
// IS a view of its block argument), or parked in a struct field — is
// invalid the moment the owning index closes. mmapwrite stops writes
// through such views; this analyzer stops reads that the control flow
// can order after the unmap, which in a serving goroutine is a SIGSEGV
// with a stack that points nowhere near the bug.
//
// Per function, the analyzer seeds from the same sources and
// constructor sinks as mmapwrite (including cross-package
// returns-mmap-view facts), associates every view with the object the
// mapping was obtained from (its owner), then runs a forward
// may-analysis over the function's CFG tracking the set of owners
// whose Close/Munmap has executed. Close is recognized as a direct
// method call on the owner (or an alias of it) and through stored
// method values (`f := ix.Close; ... f()`), including ones parked in
// struct fields (`sv.closeIndex = ix.Close`). Any use of a view whose
// owner may be closed at that point is reported.
//
// Escapes transfer lifetime out of the analyzer's sight, so a view
// escaping into a struct field, composite literal, channel or return
// value is reported only when this same function also closes the owner
// afterwards (or holds a deferred Close — which runs at every exit,
// necessarily after the escape). The designed generation handoff —
// omsd storing the engine and the Close into a refcounted serving
// struct whose release() orders the Close after the last use — is
// annotated `//oms:transfer` at the escape site, keeping the exception
// auditable by grep.
package unmaplife

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/mmapwrite"
)

// Analyzer is the unmaplife pass.
var Analyzer = &analysis.Analyzer{
	Name: "unmaplife",
	Doc:  "report uses of mmap-derived views reachable after the owning Close/Munmap",
	Run:  run,
}

func init() { analysis.RegisterName(Analyzer.Name) }

func run(pass *analysis.Pass) error {
	transfers, _ := analysis.CollectTransfers(pass.Fset, pass.Files)
	transferLines := analysis.TransferLines(transfers)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body, transferLines)
			}
			return true
		})
	}
	return nil
}

// state is the per-function taint/alias environment, built
// flow-insensitively before the CFG pass (like mmapwrite's tracker):
// which locals are views and of which owner, which struct fields hold
// views, and which locals/fields hold a stored Close.
type state struct {
	pass *analysis.Pass
	// ownerAlias maps owner aliases (ix2 := ix) to the root owner
	// object; roots map to themselves.
	ownerAlias map[types.Object]types.Object
	// viewOwner maps local view variables to their owner root.
	viewOwner map[types.Object]types.Object
	// fieldView maps struct-field objects assigned a view to the owner.
	fieldView map[types.Object]types.Object
	// closer maps locals/fields holding `owner.Close` method values to
	// the owner root.
	closer map[types.Object]types.Object
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, transferLines map[string]map[int]bool) {
	st := &state{
		pass:       pass,
		ownerAlias: map[types.Object]types.Object{},
		viewOwner:  map[types.Object]types.Object{},
		fieldView:  map[types.Object]types.Object{},
		closer:     map[types.Object]types.Object{},
	}

	// Flow-insensitive environment fixpoint: taint flows through
	// assignments until the maps stop growing.
	for {
		before := len(st.ownerAlias) + len(st.viewOwner) + len(st.fieldView) + len(st.closer)
		walkShallow(body, func(n ast.Node) { st.collect(n) })
		if len(st.ownerAlias)+len(st.viewOwner)+len(st.fieldView)+len(st.closer) == before {
			break
		}
	}
	if len(st.viewOwner) == 0 && len(st.fieldView) == 0 {
		return
	}

	g := cfg.New(body, func(*ast.CallExpr) bool { return true })

	// Owners whose Close is deferred: they close at every exit, which
	// is after every statement — relevant to escapes, not to uses.
	deferClosed := map[types.Object]bool{}
	for _, d := range g.Defers {
		for _, o := range st.closedBy(d.Call) {
			deferClosed[o] = true
		}
	}

	// Forward may-analysis: the set of owners whose Close may have
	// executed at block entry.
	in := make([]map[types.Object]bool, len(g.Blocks))
	for i := range in {
		in[i] = map[types.Object]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range g.Blocks {
			if !blk.Live {
				continue
			}
			out := st.transferBlock(blk, in[blk.Index])
			for _, e := range blk.Succs {
				for o := range out {
					if !in[e.To.Index][o] {
						in[e.To.Index][o] = true
						changed = true
					}
				}
			}
		}
	}

	// closeAhead[b] = owners whose Close executes in b or any block
	// reachable from it (for the escape rule).
	closeAhead := make([]map[types.Object]bool, len(g.Blocks))
	for i := range closeAhead {
		closeAhead[i] = map[types.Object]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range g.Blocks {
			if !blk.Live {
				continue
			}
			add := func(o types.Object) {
				if !closeAhead[blk.Index][o] {
					closeAhead[blk.Index][o] = true
					changed = true
				}
			}
			for _, n := range blk.Nodes {
				if _, ok := n.(*ast.DeferStmt); ok {
					continue
				}
				for _, o := range st.closesIn(n) {
					add(o)
				}
			}
			for _, e := range blk.Succs {
				for o := range closeAhead[e.To.Index] {
					add(o)
				}
			}
		}
	}

	// Report pass: replay each live block against its final entry
	// state; a view use while its owner is in the closed set is the
	// bug. Escapes are flagged when the owner's Close is deferred or
	// lies ahead, unless the line carries //oms:transfer.
	reported := map[ast.Node]bool{}
	for _, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		closed := make(map[types.Object]bool, len(in[blk.Index]))
		for o := range in[blk.Index] {
			closed[o] = true
		}
		for ni, n := range blk.Nodes {
			st.checkUses(n, closed, reported)
			st.checkEscape(n, blk, ni, closeAhead, deferClosed, transferLines, reported)
			for _, o := range st.closesIn(n) {
				closed[o] = true
			}
		}
	}
}

// collect grows the environment from one node.
func (st *state) collect(n ast.Node) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		// 1:1 assignments: views, owner aliases and stored closers.
		if len(x.Lhs) == len(x.Rhs) {
			for i, rhs := range x.Rhs {
				st.assign(x.Lhs[i], rhs)
			}
			return
		}
		// Tuple assignment from one call: the aliasing constructors
		// return the view-carrying value first (engine/searcher).
		if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
			if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
				if owner := st.constructorOwner(call); owner != nil {
					st.bindView(x.Lhs[0], owner)
				}
			}
		}
	case *ast.ValueSpec:
		if len(x.Values) == len(x.Names) {
			for i, v := range x.Values {
				st.assign(x.Names[i], v)
			}
		} else if len(x.Values) == 1 && len(x.Names) > 1 {
			if call, ok := ast.Unparen(x.Values[0]).(*ast.CallExpr); ok {
				if owner := st.constructorOwner(call); owner != nil {
					st.bindView(x.Names[0], owner)
				}
			}
		}
	}
}

// assign processes one lhs := rhs pair.
func (st *state) assign(lhs, rhs ast.Expr) {
	// Stored closer: f := ix.Close / sv.closeIndex = ix.Close.
	if owner := st.closeMethodValue(rhs); owner != nil {
		if obj := st.lhsObj(lhs); obj != nil {
			st.closer[obj] = owner
		}
		return
	}
	// Owner alias: ix2 := ix.
	if rid, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if robj := st.objOf(rid); robj != nil {
			if root, ok := st.ownerAlias[robj]; ok {
				if obj := st.lhsObj(lhs); obj != nil {
					st.ownerAlias[obj] = root
				}
				return
			}
		}
	}
	// View flow.
	if owner := st.viewExpr(rhs); owner != nil {
		st.bindView(lhs, owner)
	}
}

// bindView records lhs as a view of owner — a local variable or a
// struct field, whichever lhs denotes.
func (st *state) bindView(lhs ast.Expr, owner types.Object) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := st.objOf(l); obj != nil {
			st.viewOwner[obj] = owner
		}
	case *ast.SelectorExpr:
		if sel, ok := st.pass.TypesInfo.Selections[l]; ok {
			st.fieldView[sel.Obj()] = owner
		}
	}
}

// lhsObj resolves a plain-identifier assignment target.
func (st *state) lhsObj(lhs ast.Expr) types.Object {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return st.objOf(l)
	case *ast.SelectorExpr:
		if sel, ok := st.pass.TypesInfo.Selections[l]; ok {
			return sel.Obj()
		}
	}
	return nil
}

func (st *state) objOf(id *ast.Ident) types.Object {
	if obj := st.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return st.pass.TypesInfo.Uses[id]
}

// viewExpr returns the owner of the view e denotes, or nil: a view
// variable, a reslice/index/conversion of one, a source call, or an
// aliasing-constructor call.
func (st *state) viewExpr(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := st.objOf(x); obj != nil {
			return st.viewOwner[obj]
		}
	case *ast.SliceExpr:
		return st.viewExpr(x.X)
	case *ast.IndexExpr:
		// An element of basic type (w[0] on []uint64) is a value, not a
		// view; a row of [][]uint64 still aliases the mapping.
		if tv, ok := st.pass.TypesInfo.Types[x]; ok && tv.Type != nil {
			if _, basic := tv.Type.Underlying().(*types.Basic); basic {
				return nil
			}
		}
		return st.viewExpr(x.X)
	case *ast.SelectorExpr:
		if sel, ok := st.pass.TypesInfo.Selections[x]; ok {
			if owner, ok := st.fieldView[sel.Obj()]; ok {
				return owner
			}
		}
	case *ast.CallExpr:
		if mmapwrite.IsViewSource(st.pass, x) {
			return st.sourceOwner(x)
		}
		if owner := st.constructorOwner(x); owner != nil {
			return owner
		}
		// A conversion keeps the backing array.
		if len(x.Args) == 1 {
			if tv, ok := st.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				return st.viewExpr(x.Args[0])
			}
		}
	}
	return nil
}

// sourceOwner resolves the object a source call obtains its mapping
// from (the root of the receiver chain), registering it as an owner.
func (st *state) sourceOwner(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := rootObj(st.pass, sel.X)
	if obj == nil {
		return nil
	}
	root, ok := st.ownerAlias[obj]
	if !ok {
		root = obj
		st.ownerAlias[obj] = obj
	}
	return root
}

// constructorOwner returns the owner of the view retained by an
// aliasing-constructor call, or nil.
func (st *state) constructorOwner(call *ast.CallExpr) types.Object {
	for _, i := range mmapwrite.ViewConstructorArgs(st.pass, call) {
		if i < len(call.Args) {
			if owner := st.viewExpr(call.Args[i]); owner != nil {
				return owner
			}
		}
	}
	return nil
}

// closeMethodValue matches `owner.Close` / `owner.Munmap` used as a
// value (not called), returning the owner root.
func (st *state) closeMethodValue(e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !isCloseName(sel.Sel.Name) {
		return nil
	}
	// Must be a method value, not a field read.
	if s, ok := st.pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return nil
	}
	obj := rootObj(st.pass, sel.X)
	if obj == nil {
		return nil
	}
	if root, ok := st.ownerAlias[obj]; ok {
		return root
	}
	// The owner may only become known later in the fixpoint; register
	// it now so the closer binding lands on the root.
	st.ownerAlias[obj] = obj
	return obj
}

// closesIn returns the owners whose Close executes within node n
// (deferred statements excluded by the callers that must exclude
// them).
func (st *state) closesIn(n ast.Node) []types.Object {
	if _, ok := n.(*ast.DeferStmt); ok {
		return nil
	}
	var owners []types.Object
	walkShallow(n, func(c ast.Node) {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return
		}
		owners = append(owners, st.closedBy(call)...)
	})
	return owners
}

// closedBy returns the owners a single call closes: a Close/Munmap
// method call on an owner (or alias), or an invocation of a stored
// closer.
func (st *state) closedBy(call *ast.CallExpr) []types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if isCloseName(fun.Sel.Name) {
			if s, ok := st.pass.TypesInfo.Selections[fun]; !ok || s.Kind() == types.MethodVal {
				// Close on an object never registered as an owner is
				// ignored: no view of it was created in this function.
				if obj := rootObj(st.pass, fun.X); obj != nil {
					if root, ok := st.ownerAlias[obj]; ok {
						return []types.Object{root}
					}
				}
				return nil
			}
		}
		// Stored closer in a struct field: sv.closeIndex().
		if s, ok := st.pass.TypesInfo.Selections[fun]; ok && s.Kind() == types.FieldVal {
			if owner, ok := st.closer[s.Obj()]; ok {
				return []types.Object{owner}
			}
		}
	case *ast.Ident:
		if obj := st.objOf(fun); obj != nil {
			if owner, ok := st.closer[obj]; ok {
				return []types.Object{owner}
			}
		}
	}
	return nil
}

// transferBlock folds a block's nodes over the closed-owner set,
// returning the block exit state. The input map is not mutated.
func (st *state) transferBlock(blk *cfg.Block, in map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(in))
	for o := range in {
		out[o] = true
	}
	for _, n := range blk.Nodes {
		for _, o := range st.closesIn(n) {
			out[o] = true
		}
	}
	return out
}

// checkUses reports any view read in n whose owner is in the closed
// set.
func (st *state) checkUses(n ast.Node, closed map[types.Object]bool, reported map[ast.Node]bool) {
	if len(closed) == 0 {
		return
	}
	walkShallow(n, func(c ast.Node) {
		switch x := c.(type) {
		case *ast.Ident:
			obj := st.pass.TypesInfo.Uses[x]
			if obj == nil {
				return
			}
			owner, ok := st.viewOwner[obj]
			if !ok || !closed[owner] || reported[c] {
				return
			}
			reported[c] = true
			st.pass.Reportf(x.Pos(),
				"%s is a view into %s's mapping and is used after %s is closed: no view outlives its generation's Close",
				x.Name, owner.Name(), owner.Name())
		case *ast.SelectorExpr:
			sel, ok := st.pass.TypesInfo.Selections[x]
			if !ok {
				return
			}
			owner, isView := st.fieldView[sel.Obj()]
			if !isView || !closed[owner] || reported[c] {
				return
			}
			reported[c] = true
			st.pass.Reportf(x.Pos(),
				"field %s holds a view into %s's mapping and is used after %s is closed: no view outlives its generation's Close",
				sel.Obj().Name(), owner.Name(), owner.Name())
		}
	})
}

// checkEscape reports views escaping this function while the owner's
// Close is deferred or still ahead on some path.
func (st *state) checkEscape(n ast.Node, blk *cfg.Block, ni int, closeAhead []map[types.Object]bool, deferClosed map[types.Object]bool, transferLines map[string]map[int]bool, reported map[ast.Node]bool) {
	// Owners closed later in this very block, after node ni.
	aheadHere := func(owner types.Object) bool {
		for _, later := range blk.Nodes[ni+1:] {
			for _, o := range st.closesIn(later) {
				if o == owner {
					return true
				}
			}
		}
		for _, e := range blk.Succs {
			if closeAhead[e.To.Index][owner] {
				return true
			}
		}
		return false
	}
	flag := func(site ast.Node, what string, owner types.Object) {
		if reported[site] {
			return
		}
		if !deferClosed[owner] && !aheadHere(owner) {
			return
		}
		pos := st.pass.Fset.Position(site.Pos())
		if transferLines[pos.Filename][pos.Line] {
			return
		}
		reported[site] = true
		st.pass.Reportf(site.Pos(),
			"%s escapes this function but %s's mapping is closed here too: no view outlives its generation's Close (annotate //oms:transfer if the escape hands ownership over)",
			what, owner.Name())
	}
	switch x := n.(type) {
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			if owner := st.viewExpr(res); owner != nil {
				flag(x, "a returned view", owner)
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range x.Rhs {
			if len(x.Lhs) != len(x.Rhs) || i >= len(x.Lhs) {
				break
			}
			owner := st.viewExpr(rhs)
			if owner == nil {
				continue
			}
			switch ast.Unparen(x.Lhs[i]).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				flag(x, "a view stored outside the function", owner)
			}
		}
	case *ast.SendStmt:
		if owner := st.viewExpr(x.Value); owner != nil {
			flag(x, "a view sent on a channel", owner)
		}
	}
	// Composite literals escape wherever they appear (mmapwrite flags
	// the taint itself; here only the close-ordering aspect matters).
	walkShallow(n, func(c ast.Node) {
		lit, ok := c.(*ast.CompositeLit)
		if !ok {
			return
		}
		for _, elt := range lit.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if owner := st.viewExpr(val); owner != nil {
				flag(lit, "a view stored in a composite literal", owner)
			}
		}
	})
}

func isCloseName(name string) bool {
	return strings.EqualFold(name, "close") || strings.EqualFold(name, "munmap")
}

// rootObj unwraps selector/index/slice/star/paren chains to the base
// identifier's object.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// walkShallow visits nodes without descending into nested function
// literals, and — for range statements used as CFG block heads — only
// the head parts, since the body statements live in other blocks.
func walkShallow(root ast.Node, visit func(ast.Node)) {
	if r, ok := root.(*ast.RangeStmt); ok {
		visit(r)
		if r.X != nil {
			walkShallow(r.X, visit)
		}
		return
	}
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
