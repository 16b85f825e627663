package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc parses src and returns the CFG of its first function body.
func parseFunc(t *testing.T, src string, mayReturn func(*ast.CallExpr) bool) *CFG {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return New(fd.Body, mayReturn)
		}
	}
	t.Fatal("no function in source")
	return nil
}

func TestIfElseTopology(t *testing.T) {
	g := parseFunc(t, `package p
func f(a bool) int {
	x := 1
	if a {
		x = 2
	} else {
		x = 3
	}
	return x
}`, nil)
	got := g.Format(nil)
	want := strings.Join([]string{
		"b0: assign cond -> b1 b3",
		"b1: assign -> b2",
		"b2: return",
		"b3: assign -> b2",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("if/else CFG:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestForLoopEdges(t *testing.T) {
	g := parseFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}`, nil)
	got := g.Format(nil)
	// Head must branch to body and done; continue targets the post
	// block; break targets done.
	for _, frag := range []string{"cond", "incdec"} {
		if !strings.Contains(got, frag) {
			t.Errorf("for CFG missing %q:\n%s", frag, got)
		}
	}
	// Exactly one live return block.
	if strings.Count(got, "return") != 1 {
		t.Errorf("want one return block:\n%s", got)
	}
}

func TestTerminalCallEndsBlock(t *testing.T) {
	g := parseFunc(t, `package p
func f(a bool) {
	if a {
		panic("no")
	}
	println("ok")
}`, func(c *ast.CallExpr) bool {
		id, ok := c.Fun.(*ast.Ident)
		return !(ok && id.Name == "panic")
	})
	// The panic block must be live and have no successors.
	var panicBlock *Block
	for _, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		for _, n := range blk.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						panicBlock = blk
					}
				}
			}
		}
	}
	if panicBlock == nil {
		t.Fatalf("panic block not live:\n%s", g.Format(nil))
	}
	if len(panicBlock.Succs) != 0 {
		t.Errorf("panic block has successors:\n%s", g.Format(nil))
	}
}

func TestSwitchNoDefaultFallsThrough(t *testing.T) {
	g := parseFunc(t, `package p
func f(n int) string {
	switch n {
	case 1:
		return "one"
	case 2:
		return "two"
	}
	return "many"
}`, nil)
	got := g.Format(nil)
	// All three returns reachable: the header keeps an edge past the
	// clause list because there is no default.
	if strings.Count(got, "return") != 3 {
		t.Errorf("want 3 live returns (no-default edge missing?):\n%s", got)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := parseFunc(t, `package p
func f(n int) int {
	x := 0
	switch n {
	case 1:
		x = 1
		fallthrough
	case 2:
		x += 2
	default:
		x = 9
	}
	return x
}`, nil)
	// The case-1 block must have an edge into the case-2 block: find
	// the block assigning x=1 and check one successor contains x+=2.
	var c1 *Block
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if a, ok := n.(*ast.AssignStmt); ok && a.Tok == token.ASSIGN && len(a.Rhs) == 1 {
				if bl, ok := a.Rhs[0].(*ast.BasicLit); ok && bl.Value == "1" {
					c1 = blk
				}
			}
		}
	}
	if c1 == nil {
		t.Fatalf("case 1 block not found:\n%s", g.Format(nil))
	}
	found := false
	for _, e := range c1.Succs {
		for _, n := range e.To.Nodes {
			if a, ok := n.(*ast.AssignStmt); ok && a.Tok == token.ADD_ASSIGN {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("fallthrough edge from case 1 to case 2 missing:\n%s", g.Format(nil))
	}
}

func TestSelectBlocksWithoutDefault(t *testing.T) {
	g := parseFunc(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
		return 0
	}
}`, nil)
	// Both clause returns live; no direct head->done edge, so nothing
	// after the select (there is nothing) — just assert 2 returns.
	if strings.Count(g.Format(nil), "return") != 2 {
		t.Errorf("select clauses:\n%s", g.Format(nil))
	}
}

func TestRangeHeadHasTwoExits(t *testing.T) {
	g := parseFunc(t, `package p
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`, nil)
	var head *Block
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = blk
			}
		}
	}
	if head == nil || len(head.Succs) != 2 {
		t.Fatalf("range head must have body+done successors:\n%s", g.Format(nil))
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g := parseFunc(t, `package p
func f(n int) int {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	goto out
	i = -1
out:
	return i
}`, nil)
	got := g.Format(nil)
	if strings.Count(got, "return") != 1 {
		t.Errorf("goto targets unresolved:\n%s", got)
	}
	// The dead assignment after `goto out` must not be live.
	for _, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		for _, n := range blk.Nodes {
			if a, ok := n.(*ast.AssignStmt); ok {
				if bl, ok := a.Rhs[0].(*ast.UnaryExpr); ok && bl.Op == token.SUB {
					t.Errorf("unreachable assignment marked live:\n%s", got)
				}
			}
		}
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	g := parseFunc(t, `package p
func f(m [][]int) int {
	s := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				break outer
			}
			s += v
		}
	}
	return s
}`, nil)
	got := g.Format(nil)
	if strings.Count(got, "return") != 1 {
		t.Errorf("labeled break/continue resolution:\n%s", got)
	}
}

func TestDefersCollected(t *testing.T) {
	g := parseFunc(t, `package p
func f() {
	defer println("a")
	for i := 0; i < 3; i++ {
		defer println("b")
	}
}`, nil)
	if len(g.Defers) != 2 {
		t.Errorf("want 2 defers collected, got %d", len(g.Defers))
	}
}
