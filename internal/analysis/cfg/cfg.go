// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies — the substrate of unmaplife's "reachable after" and
// "on every path" reasoning (use-after-unmap), which a statement-tree
// walk can only approximate.
//
// The graph is a list of basic blocks of "atomic" nodes — simple
// statements and the control expressions that guard branches — with
// explicit successor edges for if/for/range/switch/select, labeled
// break/continue/goto, and fallthrough. Calls that never return
// (panic, os.Exit, log.Fatal — the caller decides via the mayReturn
// hook) terminate their block with no successors, exactly like a
// return. Deferred statements appear both in their block (in source
// order, so their sub-expressions are evaluated where Go evaluates
// them) and on the CFG's Defers list, since their calls run at
// function exit, not where they appear.
//
// The builder is resolution-free: labels are matched lexically, so it
// works on files parsed with parser.SkipObjectResolution (as both
// omsvet drivers parse).
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every basic block; Blocks[0] is the entry. Builder
	// artifacts (unreachable continuations after return/branch) are
	// retained but marked dead — analyzers iterate blocks with Live set.
	Blocks []*Block
	// Defers lists every defer statement in the body (outside nested
	// function literals), in source order. Deferred calls execute at
	// every function exit; analyzers model them explicitly rather than
	// through edges.
	Defers []*ast.DeferStmt
}

// Block is one basic block: nodes that execute in order with no
// branching between them.
type Block struct {
	Index int
	// Nodes holds simple statements (assign, expr, send, incdec, defer,
	// decl, return, branch) and bare control expressions (an if or
	// switch condition, a range operand as its RangeStmt). Nested
	// statement bodies are never inside a node — they are other blocks.
	Nodes []ast.Node
	Succs []Edge
	// Live marks blocks reachable from the entry.
	Live bool
}

// Edge is one successor edge.
type Edge struct {
	To *Block
}

// New builds the CFG of body. mayReturn classifies calls: a call for
// which it reports false (panic, os.Exit, testing's Fatal family)
// terminates its block like a return. A nil mayReturn treats every
// call as returning.
func New(body *ast.BlockStmt, mayReturn func(*ast.CallExpr) bool) *CFG {
	if mayReturn == nil {
		mayReturn = func(*ast.CallExpr) bool { return true }
	}
	b := &builder{
		g:          &CFG{},
		mayReturn:  mayReturn,
		labelStart: map[string]*Block{},
		labelDone:  map[string]*Block{},
		labelCont:  map[string]*Block{},
	}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	b.markLive()
	return b.g
}

// builder carries the construction state.
type builder struct {
	g         *CFG
	mayReturn func(*ast.CallExpr) bool
	cur       *Block
	targets   *targets

	// pendingLabel is the label of the LabeledStmt currently being
	// entered, consumed by the loop/switch/select it wraps.
	pendingLabel string
	// fallthroughTo is the next case clause's body during switch-clause
	// construction.
	fallthroughTo *Block

	labelStart map[string]*Block // goto targets
	labelDone  map[string]*Block // labeled break targets
	labelCont  map[string]*Block // labeled continue targets
}

// targets is the stack of enclosing breakable/continuable constructs.
type targets struct {
	outer      *targets
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// jump adds an unconditional edge from the current block and makes to
// current.
func (b *builder) jump(to *Block) {
	b.cur.Succs = append(b.cur.Succs, Edge{To: to})
	b.cur = to
}

// edgeTo adds an edge without moving the current block.
func (b *builder) edgeTo(to *Block) {
	b.cur.Succs = append(b.cur.Succs, Edge{To: to})
}

// terminate ends the current block with no successors (return, panic)
// and opens a fresh — unreachable until targeted — continuation block.
func (b *builder) terminate() { b.cur = b.newBlock() }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label of the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(x.List)

	case *ast.LabeledStmt:
		name := x.Label.Name
		start := b.labelBlock(b.labelStart, name)
		b.jump(start)
		done := b.labelBlock(b.labelDone, name)
		b.pendingLabel = name
		b.stmt(x.Stmt)
		b.pendingLabel = ""
		b.jump(done)

	case *ast.IfStmt:
		if x.Init != nil {
			b.stmt(x.Init)
		}
		b.add(x.Cond)
		then := b.newBlock()
		done := b.newBlock()
		els := done
		if x.Else != nil {
			els = b.newBlock()
		}
		b.edgeTo(then)
		b.edgeTo(els)
		b.cur = then
		b.stmtList(x.Body.List)
		b.jump(done)
		if x.Else != nil {
			b.cur = els
			b.stmt(x.Else)
			b.jump(done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		done := b.newBlock()
		cont := head
		if x.Post != nil {
			cont = b.newBlock()
		}
		b.setLabelTargets(label, done, cont)
		b.jump(head)
		if x.Cond != nil {
			b.add(x.Cond)
			b.edgeTo(body)
			b.edgeTo(done)
		} else {
			b.edgeTo(body)
		}
		b.cur = body
		b.targets = &targets{outer: b.targets, breakTo: done, continueTo: cont}
		b.stmtList(x.Body.List)
		b.targets = b.targets.outer
		b.jump(cont)
		if x.Post != nil {
			b.stmt(x.Post)
			b.jump(head)
		}
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		done := b.newBlock()
		b.setLabelTargets(label, done, head)
		b.jump(head)
		// The RangeStmt itself is the head node: its X operand is
		// evaluated and its Key/Value variables defined once per
		// iteration. Dataflow walkers visit X/Key/Value only — the body
		// statements live in their own blocks.
		b.add(x)
		b.edgeTo(body)
		b.edgeTo(done)
		b.cur = body
		b.targets = &targets{outer: b.targets, breakTo: done, continueTo: head}
		b.stmtList(x.Body.List)
		b.targets = b.targets.outer
		b.jump(head)
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		if x.Tag != nil {
			b.add(x.Tag)
		}
		b.switchClauses(label, x.Body, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if x.Init != nil {
			b.stmt(x.Init)
		}
		b.add(x.Assign)
		b.switchClauses(label, x.Body, func(*ast.CaseClause) {})

	case *ast.SelectStmt:
		label := b.takeLabel()
		done := b.newBlock()
		b.setLabelTargets(label, done, nil)
		head := b.cur
		for _, clause := range x.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			head.Succs = append(head.Succs, Edge{To: blk})
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.targets = &targets{outer: b.targets, breakTo: done}
			b.stmtList(cc.Body)
			b.targets = b.targets.outer
			b.jump(done)
		}
		// A select with no default blocks until a clause fires: there is
		// deliberately no head→done edge unless the body is empty.
		if len(x.Body.List) == 0 {
			head.Succs = append(head.Succs, Edge{To: done})
		}
		b.cur = done

	case *ast.BranchStmt:
		b.add(x)
		switch x.Tok {
		case token.BREAK:
			if to := b.branchTarget(x, b.labelDone, func(t *targets) *Block { return t.breakTo }); to != nil {
				b.edgeTo(to)
			}
		case token.CONTINUE:
			if to := b.branchTarget(x, b.labelCont, func(t *targets) *Block { return t.continueTo }); to != nil {
				b.edgeTo(to)
			}
		case token.GOTO:
			if x.Label != nil {
				b.edgeTo(b.labelBlock(b.labelStart, x.Label.Name))
			}
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edgeTo(b.fallthroughTo)
			}
		}
		b.terminate()

	case *ast.ReturnStmt:
		b.add(x)
		b.terminate()

	case *ast.ExprStmt:
		b.add(x)
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok && !b.mayReturn(call) {
			b.terminate()
		}

	case *ast.DeferStmt:
		b.add(x)
		b.g.Defers = append(b.g.Defers, x)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Send, Go, Decl, Bad: plain nodes.
		b.add(s)
	}
}

// switchClauses builds the clause blocks of a (type) switch: the
// header gets one edge per clause, plus an edge past the switch when
// no default clause exists. addExprs contributes each clause's case
// expressions to its block so dataflow sees their uses. Fallthrough
// jumps to the next clause's body.
func (b *builder) switchClauses(label string, body *ast.BlockStmt, addExprs func(*ast.CaseClause)) {
	head := b.cur
	done := b.newBlock()
	b.setLabelTargets(label, done, nil)
	var clauses []*ast.CaseClause
	blocks := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		blk := b.newBlock()
		blocks = append(blocks, blk)
		head.Succs = append(head.Succs, Edge{To: blk})
	}
	if !hasDefault {
		head.Succs = append(head.Succs, Edge{To: done})
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		addExprs(cc)
		savedFT := b.fallthroughTo
		b.fallthroughTo = nil
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.targets = &targets{outer: b.targets, breakTo: done}
		b.stmtList(cc.Body)
		b.targets = b.targets.outer
		b.fallthroughTo = savedFT
		b.jump(done)
	}
	b.cur = done
}

// branchTarget resolves a break/continue: by label when present,
// otherwise the innermost enclosing target of the right kind.
func (b *builder) branchTarget(x *ast.BranchStmt, labeled map[string]*Block, pick func(*targets) *Block) *Block {
	if x.Label != nil {
		if to, ok := labeled[x.Label.Name]; ok {
			return to
		}
		return nil
	}
	for t := b.targets; t != nil; t = t.outer {
		if to := pick(t); to != nil {
			return to
		}
	}
	return nil
}

// labelBlock returns the named block in m, creating it on first use
// (forward gotos reference labels not yet built).
func (b *builder) labelBlock(m map[string]*Block, name string) *Block {
	if blk, ok := m[name]; ok {
		return blk
	}
	blk := b.newBlock()
	m[name] = blk
	return blk
}

// setLabelTargets binds a wrapping label's break/continue targets.
func (b *builder) setLabelTargets(label string, done, cont *Block) {
	if label == "" {
		return
	}
	// The LabeledStmt pre-created a done block; route it through the
	// construct's own done so `break L` and natural exit converge.
	if pre, ok := b.labelDone[label]; ok && pre != done {
		pre.Succs = append(pre.Succs, Edge{To: done})
	}
	b.labelDone[label] = done
	if cont != nil {
		b.labelCont[label] = cont
	}
}

// markLive flags every block reachable from the entry.
func (b *builder) markLive() {
	if len(b.g.Blocks) == 0 {
		return
	}
	var dfs func(*Block)
	dfs = func(blk *Block) {
		if blk.Live {
			return
		}
		blk.Live = true
		for _, e := range blk.Succs {
			dfs(e.To)
		}
	}
	dfs(b.g.Blocks[0])
}

// Format renders the graph for tests and debugging: one line per live
// block with node kinds and successor indices.
func (g *CFG) Format(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		fmt.Fprintf(&sb, "b%d:", blk.Index)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " %s", nodeKind(n))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, e := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", e.To.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func nodeKind(n ast.Node) string {
	switch n.(type) {
	case *ast.AssignStmt:
		return "assign"
	case *ast.ReturnStmt:
		return "return"
	case *ast.ExprStmt:
		return "expr"
	case *ast.DeferStmt:
		return "defer"
	case *ast.RangeStmt:
		return "range"
	case *ast.BranchStmt:
		return "branch"
	case *ast.IncDecStmt:
		return "incdec"
	case *ast.SendStmt:
		return "send"
	case *ast.DeclStmt:
		return "decl"
	case *ast.GoStmt:
		return "go"
	case ast.Expr:
		return "cond"
	}
	return fmt.Sprintf("%T", n)
}
