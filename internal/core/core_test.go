package core

import (
	"strings"
	"testing"

	"repro/internal/estimates"
	"repro/internal/ir"
	"repro/internal/splash"
)

// newCtx returns a pass context ready to run the block-level optimizations
// on f.
func newCtx(t *testing.T, f *ir.Func, opt Options) *passCtx {
	t.Helper()
	p := &passCtx{
		cm:  ir.DefaultCostModel(),
		est: estimates.DefaultTable(),
		opt: opt.Defaults(),
	}
	p.enter(f)
	return p
}

// countClockAdds returns the number of static clockadd instructions in f and
// the sum of their amounts.
func countClockAdds(f *ir.Func) (n int, total int64) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpClockAdd && b.Instrs[i].Scale == 0 {
				n++
				total += b.Instrs[i].A.Imm
			}
		}
	}
	return
}

// pathSums enumerates entry→ret path clock sums of f using Block.Clock.
func pathSums(t *testing.T, f *ir.Func) []int64 {
	t.Helper()
	clocks, err := ir.FunctionPathClocks(f, func(b *ir.Block) (int64, bool) {
		return b.Clock, true
	})
	if err != nil {
		t.Fatalf("FunctionPathClocks: %v", err)
	}
	return clocks
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Instrument end-to-end -------------------------------------------------

// buildLeafCaller builds main (a loop calling a balanced leaf function).
func buildLeafCaller() *ir.Module {
	mb := ir.NewModule("leafcaller")
	mb.Locks(1)

	leaf := mb.Func("leaf", "x")
	x := leaf.Reg("x")
	c := leaf.Reg("c")
	y := leaf.Reg("y")
	leaf.Block("entry").
		Bin(ir.OpLT, c, ir.R(x), ir.Imm(50)).
		Br(ir.R(c), "then", "else")
	// Balanced arms: both cost add(1)+jmp(1).
	leaf.Block("then").Bin(ir.OpAdd, y, ir.R(x), ir.Imm(1)).Jmp("merge")
	leaf.Block("else").Bin(ir.OpSub, y, ir.R(x), ir.Imm(1)).Jmp("merge")
	leaf.Block("merge").Ret(ir.R(y))

	main := mb.Func("main")
	i := main.Reg("i")
	cc := main.Reg("c")
	r := main.Reg("r")
	main.Block("entry").Const(i, 0).Jmp("loop")
	main.Block("loop").Bin(ir.OpLT, cc, ir.R(i), ir.Imm(10)).Br(ir.R(cc), "body", "done")
	main.Block("body").
		Call(r, "leaf", ir.R(i)).
		Bin(ir.OpAdd, i, ir.R(i), ir.Imm(1)).
		Jmp("loop")
	main.Block("done").Lock(ir.Imm(0)).Unlock(ir.Imm(0)).Ret(ir.R(i))
	return mb.M
}

func TestInstrumentNoOpt(t *testing.T) {
	m := buildLeafCaller()
	res, err := Instrument(m, nil, nil, Options{Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if len(res.Clockable) != 0 {
		t.Fatalf("no-opt should have no clockable funcs, got %v", res.Clockable)
	}
	// leaf is unclocked: the call in main.body must be isolated by splitting.
	if res.BlocksSplit == 0 {
		t.Fatalf("expected block splitting around the unclocked call")
	}
	main := m.Func("main")
	// The call must now be the only instruction in its block.
	var callBlock *ir.Block
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				callBlock = b
				nonCA := 0
				for j := range b.Instrs {
					if b.Instrs[j].Op != ir.OpClockAdd {
						nonCA++
					}
				}
				if nonCA != 1 {
					t.Fatalf("call block %q has %d non-clockadd instrs", b.Name, nonCA)
				}
			}
		}
	}
	if callBlock == nil {
		t.Fatalf("call disappeared")
	}
	// leaf keeps its own clock updates.
	n, _ := countClockAdds(m.Func("leaf"))
	if n == 0 {
		t.Fatalf("unclocked leaf should carry clockadds")
	}
	if res.StaticClockAdds == 0 || res.TotalStaticClock == 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
}

func TestInstrumentO1ClocksLeaf(t *testing.T) {
	m := buildLeafCaller()
	res, err := Instrument(m, nil, nil, Options{O1: true, Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	mean, ok := res.Clockable["leaf"]
	if !ok {
		t.Fatalf("leaf should be clockable; got %v", res.Clockable)
	}
	// leaf paths: entry(lt+br=2) + arm(add/sub+jmp=2) + merge(ret=1) = 5 both.
	if mean != 5 {
		t.Fatalf("leaf mean = %d, want 5", mean)
	}
	// leaf body must carry no clockadds.
	if n, _ := countClockAdds(m.Func("leaf")); n != 0 {
		t.Fatalf("clocked leaf should carry no clockadds, found %d", n)
	}
	// main.body charges call overhead + mean in its (unsplit) block: the
	// clocked call must NOT be isolated (sync ops elsewhere still split).
	body := m.Func("main").Block("body")
	if body == nil {
		t.Fatalf("body block missing")
	}
	hasCall, hasAdd := false, false
	for i := range body.Instrs {
		switch body.Instrs[i].Op {
		case ir.OpCall:
			hasCall = true
		case ir.OpAdd:
			hasAdd = true
		}
	}
	if !hasCall || !hasAdd {
		t.Fatalf("clocked call should stay fused with its block (call=%v add=%v)", hasCall, hasAdd)
	}
	if body.Instrs[0].Op != ir.OpClockAdd {
		t.Fatalf("clock update should lead the block (ahead of time)")
	}
	// body clock: call overhead 2 + mean 5 + add 1 + jmp 1 = 9.
	if got := body.Instrs[0].A.Imm; got != 9 {
		t.Fatalf("body clock = %d, want 9", got)
	}
}

func TestO1FixpointTransitive(t *testing.T) {
	// wrapper calls leaf; once leaf is clocked, wrapper becomes clockable too.
	mb := ir.NewModule("trans")
	leaf := mb.Func("leaf", "x")
	x := leaf.Reg("x")
	y := leaf.Reg("y")
	leaf.Block("entry").Bin(ir.OpAdd, y, ir.R(x), ir.Imm(1)).Ret(ir.R(y))

	wrap := mb.Func("wrap", "x")
	wx := wrap.Reg("x")
	wy := wrap.Reg("y")
	wrap.Block("entry").Call(wy, "leaf", ir.R(wx)).Ret(ir.R(wy))

	main := mb.Func("main")
	r := main.Reg("r")
	main.Block("entry").Call(r, "wrap", ir.Imm(3)).Ret(ir.R(r))

	res, err := Instrument(mb.M, nil, nil, Options{O1: true, Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if _, ok := res.Clockable["leaf"]; !ok {
		t.Fatalf("leaf not clockable")
	}
	if _, ok := res.Clockable["wrap"]; !ok {
		t.Fatalf("wrap should be transitively clockable: %v", res.Clockable)
	}
	// leaf mean: add 1 + ret 1 = 2. wrap mean: call 2 + leaf 2 + ret 1 = 5.
	if res.Clockable["leaf"] != 2 || res.Clockable["wrap"] != 5 {
		t.Fatalf("means = %v", res.Clockable)
	}
}

func TestO1RejectsLoopsSyncAndDivergence(t *testing.T) {
	mb := ir.NewModule("rej")
	mb.Locks(1)

	// loops: not clockable.
	lf := mb.Func("loopy", "n")
	n := lf.Reg("n")
	i := lf.Reg("i")
	c := lf.Reg("c")
	lf.Block("entry").Const(i, 0).Jmp("hdr")
	lf.Block("hdr").Bin(ir.OpLT, c, ir.R(i), ir.R(n)).Br(ir.R(c), "body", "out")
	lf.Block("body").Bin(ir.OpAdd, i, ir.R(i), ir.Imm(1)).Jmp("hdr")
	lf.Block("out").Ret(ir.R(i))

	// sync: not clockable.
	sf := mb.Func("sync", "x")
	sx := sf.Reg("x")
	sf.Block("entry").Lock(ir.Imm(0)).Unlock(ir.Imm(0)).Ret(ir.R(sx))

	// divergent paths: not clockable.
	df := mb.Func("div", "x")
	dx := df.Reg("x")
	dy := df.Reg("y")
	dc := df.Reg("c")
	df.Block("entry").Bin(ir.OpLT, dc, ir.R(dx), ir.Imm(0)).Br(ir.R(dc), "cheap", "costly")
	df.Block("cheap").Jmp("merge")
	cb := df.Block("costly")
	for k := 0; k < 40; k++ {
		cb.Bin(ir.OpMul, dy, ir.R(dx), ir.R(dx))
	}
	cb.Jmp("merge")
	df.Block("merge").Ret(ir.R(dy))

	main := mb.Func("main")
	r := main.Reg("r")
	main.Block("entry").
		Call(r, "loopy", ir.Imm(5)).
		Call(r, "sync", ir.Imm(1)).
		Call(r, "div", ir.Imm(2)).
		Ret(ir.R(r))

	res, err := Instrument(mb.M, nil, nil, Options{O1: true, Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	for _, bad := range []string{"loopy", "sync", "div", "main"} {
		if _, ok := res.Clockable[bad]; ok {
			t.Errorf("%s should not be clockable", bad)
		}
	}
}

func TestInstrumentPlaceAtEnd(t *testing.T) {
	m := buildLeafCaller()
	_, err := Instrument(m, nil, nil, Options{O1: true, PlaceAtEnd: true, Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	body := m.Func("main").Block("body")
	last := body.Instrs[len(body.Instrs)-1]
	if last.Op != ir.OpClockAdd {
		t.Fatalf("PlaceAtEnd should put the clockadd last, got %v", last.Op)
	}
	if body.Instrs[0].Op == ir.OpClockAdd {
		t.Fatalf("PlaceAtEnd should not also emit at the start")
	}
}

func TestInstrumentDynamicBuiltin(t *testing.T) {
	mb := ir.NewModule("dyn")
	main := mb.Func("main")
	sz := main.Reg("sz")
	r := main.Reg("r")
	main.Block("entry").
		Const(sz, 128).
		Call(r, "memset", ir.Imm(0), ir.R(sz)).
		Ret(ir.R(r))
	res, err := Instrument(mb.M, nil, nil, Options{Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if res.DynamicClockAdds != 1 {
		t.Fatalf("DynamicClockAdds = %d, want 1", res.DynamicClockAdds)
	}
	entry := mb.M.Func("main").Entry()
	var dyn *ir.Instr
	for i := range entry.Instrs {
		if entry.Instrs[i].Op == ir.OpClockAdd && entry.Instrs[i].Scale != 0 {
			dyn = &entry.Instrs[i]
			// It must sit immediately before the call.
			if entry.Instrs[i+1].Op != ir.OpCall {
				t.Fatalf("dynamic clockadd should precede the call")
			}
		}
	}
	if dyn == nil {
		t.Fatalf("no dynamic clockadd emitted")
	}
	if dyn.Scale != 1 || dyn.B.Reg != sz {
		t.Fatalf("dynamic clockadd = %+v", dyn)
	}
	// Block is unclockable: optimizations must leave it alone.
	if !entry.Unclockable {
		t.Fatalf("dynamic builtin block should be unclockable")
	}
}

func TestInstrumentConstBuiltinFolds(t *testing.T) {
	mb := ir.NewModule("fold")
	main := mb.Func("main")
	r := main.Reg("r")
	main.Block("entry").
		Call(r, "memset", ir.Imm(0), ir.Imm(64)).
		Ret(ir.R(r))
	res, err := Instrument(mb.M, nil, nil, Options{Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if res.DynamicClockAdds != 0 {
		t.Fatalf("constant-size memset should fold statically")
	}
	entry := mb.M.Func("main").Entry()
	// entry clock: call overhead 2 + memset(12 + 64) 76 + ret 1 = 79.
	if entry.Instrs[0].Op != ir.OpClockAdd || entry.Instrs[0].A.Imm != 79 {
		t.Fatalf("entry clock = %v", entry.Instrs[0])
	}
}

func TestInstrumentRejectsBadModule(t *testing.T) {
	mb := ir.NewModule("bad")
	f := mb.Func("main")
	r := f.Reg("r")
	f.Block("entry").Call(r, "nosuchfn").Ret(ir.R(r))
	// nosuchfn is not a builtin in an empty table: verification must fail.
	empty := estimates.NewTable()
	if _, err := Instrument(mb.M, nil, empty, Options{}); err == nil {
		t.Fatalf("Instrument should reject unresolved calls")
	} else if !strings.Contains(err.Error(), "does not verify") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// --- Individual optimizations ----------------------------------------------

func TestOpt2aDiamond(t *testing.T) {
	mb := ir.NewModule("o2a")
	fb := mb.Func("f", "x")
	c := fb.Reg("c")
	fb.Block("entry").Bin(ir.OpLT, c, ir.R(fb.Reg("x")), ir.Imm(1)).Br(ir.R(c), "then", "else")
	fb.Block("then").Jmp("merge")
	fb.Block("else").Jmp("merge")
	fb.Block("merge").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	f.Block("entry").Clock = 2
	f.Block("then").Clock = 3
	f.Block("else").Clock = 5
	f.Block("merge").Clock = 1

	before := sortedCopy(pathSums(t, f))
	p := newCtx(t, f, Options{O2a: true})
	moves := p.applyOpt2a()
	if moves == 0 {
		t.Fatalf("O2a made no moves")
	}
	after := sortedCopy(pathSums(t, f))
	if !equalInt64s(before, after) {
		t.Fatalf("O2a must be precise: before %v after %v", before, after)
	}
	// One arm must reach zero (min hoist) and the merge must be pushed up.
	if f.Block("merge").Clock != 0 {
		t.Fatalf("merge clock = %d, want 0", f.Block("merge").Clock)
	}
	if f.Block("then").Clock != 0 {
		t.Fatalf("then clock = %d, want 0 (min arm)", f.Block("then").Clock)
	}
	if f.Block("entry").Clock != 6 {
		t.Fatalf("entry clock = %d, want 6", f.Block("entry").Clock)
	}
	if f.Block("else").Clock != 2 {
		t.Fatalf("else clock = %d, want 2", f.Block("else").Clock)
	}
}

func TestOpt2aSkipsLoopHeaderMerge(t *testing.T) {
	// A loop header is a merge of entry + latch; its clock must not be pushed
	// up into the latch.
	mb := ir.NewModule("o2ahdr")
	fb := mb.Func("f", "n")
	c := fb.Reg("c")
	i := fb.Reg("i")
	fb.Block("entry").Const(i, 0).Jmp("hdr")
	fb.Block("hdr").Bin(ir.OpLT, c, ir.R(i), ir.R(fb.Reg("n"))).Br(ir.R(c), "body", "out")
	fb.Block("body").Bin(ir.OpAdd, i, ir.R(i), ir.Imm(1)).Jmp("hdr")
	fb.Block("out").Ret(ir.R(i))
	f := mb.M.Func("f")
	f.Block("hdr").Clock = 7
	p := newCtx(t, f, Options{O2a: true})
	p.applyOpt2a()
	if f.Block("hdr").Clock == 0 {
		t.Fatalf("loop header clock must not be pushed up")
	}
}

func TestOpt2aSkipsUnclockable(t *testing.T) {
	mb := ir.NewModule("o2au")
	fb := mb.Func("f", "x")
	c := fb.Reg("c")
	fb.Block("entry").Bin(ir.OpLT, c, ir.R(fb.Reg("x")), ir.Imm(1)).Br(ir.R(c), "then", "else")
	fb.Block("then").Jmp("merge")
	fb.Block("else").Jmp("merge")
	fb.Block("merge").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	f.Block("then").Clock = 3
	f.Block("else").Clock = 5
	f.Block("then").Unclockable = true
	p := newCtx(t, f, Options{O2a: true})
	if n := p.applyOpt2a(); n != 0 {
		t.Fatalf("O2a should skip unclockable successors, moved %d", n)
	}
}

func TestOpt2bTriangleMovesUp(t *testing.T) {
	f := buildTriangle(1, 2, 1, 90)
	p := newCtx(t, f, Options{O2b: true})
	if n := p.applyOpt2b(); n != 1 {
		t.Fatalf("O2b moves = %d, want 1", n)
	}
	if f.Block("upper").Clock != 2 || f.Block("lower").Clock != 0 {
		t.Fatalf("clocks: upper=%d lower=%d, want 2/0",
			f.Block("upper").Clock, f.Block("lower").Clock)
	}
}

func TestOpt2bRejectsLargeDivergence(t *testing.T) {
	f := buildTriangle(50, 2, 60, 10)
	p := newCtx(t, f, Options{O2b: true})
	if n := p.applyOpt2b(); n != 0 {
		t.Fatalf("O2b should reject large divergence, moved %d", n)
	}
}

// buildTriangle: upper -> {middle, lower}; middle -> {lower, escape};
// lower -> exit; escape -> exit.
func buildTriangle(upperC, middleC, lowerC, escapeC int64) *ir.Func {
	mb := ir.NewModule("tri")
	fb := mb.Func("f", "x")
	c := fb.Reg("c")
	fb.Block("upper").Bin(ir.OpLT, c, ir.R(fb.Reg("x")), ir.Imm(1)).Br(ir.R(c), "middle", "lower")
	fb.Block("middle").Br(ir.R(c), "lower", "escape")
	fb.Block("lower").Jmp("exit")
	fb.Block("escape").Jmp("exit")
	fb.Block("exit").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	f.Block("upper").Clock = upperC
	f.Block("middle").Clock = middleC
	f.Block("lower").Clock = lowerC
	f.Block("escape").Clock = escapeC
	return f
}

func TestOpt2bLoopDepthMovesDown(t *testing.T) {
	// upper/middle sit inside a loop; lower is the loop exit. The paper's
	// rule removes the clock from the deeper block (upper) to save updates on
	// the hot path.
	mb := ir.NewModule("o2bloop")
	fb := mb.Func("f", "n")
	c := fb.Reg("c")
	fb.Block("entry").Jmp("upper")
	fb.Block("upper").Bin(ir.OpLT, c, ir.R(fb.Reg("n")), ir.Imm(1)).Br(ir.R(c), "middle", "lower")
	fb.Block("middle").Br(ir.R(c), "lower", "latch")
	fb.Block("latch").Jmp("upper")
	fb.Block("lower").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	f.Block("upper").Clock = 1
	f.Block("middle").Clock = 2
	f.Block("lower").Clock = 5
	f.Block("latch").Clock = 90
	p := newCtx(t, f, Options{O2b: true})
	if n := p.applyOpt2b(); n != 1 {
		t.Fatalf("O2b moves = %d, want 1", n)
	}
	if f.Block("upper").Clock != 0 || f.Block("lower").Clock != 6 {
		t.Fatalf("upper=%d lower=%d, want 0/6", f.Block("upper").Clock, f.Block("lower").Clock)
	}
}

func TestOpt3PaperExample(t *testing.T) {
	// Region with 4 paths totalling {37, 38, 38, 29} (paper §IV-C): mean
	// 35.5, range 9 < 14.2, σ 4.39 < 7.1 → root gets 35.
	mb := ir.NewModule("o3")
	fb := mb.Func("f", "x")
	c := fb.Reg("c")
	x := fb.Reg("x")
	fb.Block("root").Bin(ir.OpLT, c, ir.R(x), ir.Imm(1)).Br(ir.R(c), "a", "b")
	fb.Block("a").Br(ir.R(c), "a1", "a2")
	fb.Block("b").Br(ir.R(c), "b1", "b2")
	fb.Block("a1").Jmp("merge")
	fb.Block("a2").Jmp("merge")
	fb.Block("b1").Jmp("merge")
	fb.Block("b2").Jmp("merge")
	fb.Block("merge").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	set := func(name string, v int64) { f.Block(name).Clock = v }
	set("root", 2)
	set("a", 10)
	set("b", 5)
	set("a1", 24) // 2+10+24+1 = 37
	set("a2", 25) // 38
	set("b1", 30) // 38
	set("b2", 21) // 29
	set("merge", 1)
	p := newCtx(t, f, Options{O3: true})
	if n := p.applyOpt3(); n != 1 {
		t.Fatalf("O3 regions = %d, want 1", n)
	}
	if f.Block("root").Clock != 35 {
		t.Fatalf("root clock = %d, want 35", f.Block("root").Clock)
	}
	for _, name := range []string{"a", "b", "a1", "a2", "b1", "b2", "merge"} {
		if f.Block(name).Clock != 0 {
			t.Fatalf("block %s clock = %d, want 0", name, f.Block(name).Clock)
		}
	}
}

func TestOpt3RejectsDivergent(t *testing.T) {
	mb := ir.NewModule("o3r")
	fb := mb.Func("f", "x")
	c := fb.Reg("c")
	fb.Block("root").Bin(ir.OpLT, c, ir.R(fb.Reg("x")), ir.Imm(1)).Br(ir.R(c), "a", "b")
	fb.Block("a").Jmp("merge")
	fb.Block("b").Jmp("merge")
	fb.Block("merge").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	f.Block("a").Clock = 5
	f.Block("b").Clock = 500
	p := newCtx(t, f, Options{O3: true})
	if n := p.applyOpt3(); n != 0 {
		t.Fatalf("O3 should reject divergent region")
	}
	if f.Block("b").Clock != 500 {
		t.Fatalf("divergent region must be untouched")
	}
}

func TestOpt3StopsAtNonDominatedMerge(t *testing.T) {
	// root region's merge has a successor (shared) reachable from outside
	// root's dominance; path must stop at the merge (inclusive) and shared's
	// clock must survive.
	mb := ir.NewModule("o3d")
	fb := mb.Func("f", "x")
	c := fb.Reg("c")
	fb.Block("entry").Br(ir.R(c), "root", "other")
	fb.Block("root").Br(ir.R(c), "a", "b")
	fb.Block("a").Jmp("rm")
	fb.Block("b").Jmp("rm")
	fb.Block("rm").Jmp("shared")
	fb.Block("other").Jmp("shared")
	fb.Block("shared").Ret(ir.Imm(0))
	f := mb.M.Func("f")
	f.Block("root").Clock = 4
	f.Block("a").Clock = 10
	f.Block("b").Clock = 11
	f.Block("rm").Clock = 2
	f.Block("shared").Clock = 100
	// Make the region rooted at entry too divergent to average, so the test
	// isolates the root region (entry dominates everything, so it would
	// otherwise legitimately absorb shared).
	f.Block("other").Clock = 1000
	p := newCtx(t, f, Options{O3: true})
	p.applyOpt3()
	if f.Block("shared").Clock != 100 {
		t.Fatalf("shared clock = %d, must be untouched", f.Block("shared").Clock)
	}
	if f.Block("root").Clock == 0 {
		t.Fatalf("root should carry the averaged clock")
	}
}

func TestOpt4MergesLatch(t *testing.T) {
	mb := ir.NewModule("o4")
	fb := mb.Func("f", "n")
	c := fb.Reg("c")
	i := fb.Reg("i")
	fb.Block("entry").Const(i, 0).Jmp("hdr")
	fb.Block("hdr").Bin(ir.OpLT, c, ir.R(i), ir.R(fb.Reg("n"))).Br(ir.R(c), "body", "out")
	fb.Block("body").Bin(ir.OpAdd, i, ir.R(i), ir.Imm(1)).Jmp("latch")
	fb.Block("latch").Jmp("hdr")
	fb.Block("out").Ret(ir.R(i))
	f := mb.M.Func("f")
	f.Block("hdr").Clock = 5
	f.Block("latch").Clock = 2
	p := newCtx(t, f, Options{O4: true})
	if n := p.applyOpt4(); n != 1 {
		t.Fatalf("O4 merges = %d, want 1", n)
	}
	if f.Block("hdr").Clock != 7 || f.Block("latch").Clock != 0 {
		t.Fatalf("hdr=%d latch=%d, want 7/0", f.Block("hdr").Clock, f.Block("latch").Clock)
	}
}

func TestOpt4RespectsThresholdAndOrder(t *testing.T) {
	mb := ir.NewModule("o4r")
	fb := mb.Func("f", "n")
	c := fb.Reg("c")
	fb.Block("entry").Jmp("hdr")
	fb.Block("hdr").Bin(ir.OpLT, c, ir.Imm(0), ir.R(fb.Reg("n"))).Br(ir.R(c), "latch", "out")
	fb.Block("latch").Jmp("hdr")
	fb.Block("out").Ret(ir.Imm(0))
	f := mb.M.Func("f")

	// Latch clock above threshold: no merge.
	f.Block("hdr").Clock = 100
	f.Block("latch").Clock = 50
	p := newCtx(t, f, Options{O4: true})
	if n := p.applyOpt4(); n != 0 {
		t.Fatalf("O4 should respect threshold")
	}
	// Latch clock >= header clock: no merge.
	f.Block("hdr").Clock = 2
	f.Block("latch").Clock = 5
	if n := p.applyOpt4(); n != 0 {
		t.Fatalf("O4 should not merge latch >= header")
	}
}

// --- Pass statistics ---------------------------------------------------------

func TestResultClockableNamesSorted(t *testing.T) {
	r := &Result{Clockable: map[string]int64{"z": 1, "a": 2, "m": 3}}
	names := r.ClockableNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "z" {
		t.Fatalf("names = %v", names)
	}
}

func TestPresetNames(t *testing.T) {
	cases := map[string]Options{
		"With No Optimization":                           OptNone,
		"With Function Clocking Only (O1)":               OptO1,
		"With Conditional Blocks Optimization Only (O2)": OptO2,
		"With Averaging of Clocks Only (O3)":             OptO3,
		"With Loops Optimization Only (O4)":              OptO4,
		"With All Optimizations":                         OptAll,
	}
	for want, o := range cases {
		if got := PresetName(o); got != want {
			t.Errorf("PresetName(%+v) = %q, want %q", o, got, want)
		}
	}
	if len(TableIPresets()) != 6 {
		t.Fatalf("TableIPresets should list 6 rows")
	}
}

// TestInstrumentAllocs pins what the shared per-function analysis, the
// index-addressed sets and the one-pass splitter bought: before them,
// Instrument(all) on radiosity made 4582 allocations (commit 71a39d6).
func TestInstrumentAllocs(t *testing.T) {
	b := splash.Radiosity(4)
	const runs = 10
	mods := make([]*ir.Module, runs+1) // AllocsPerRun warms up with one call
	for i := range mods {
		mods[i] = b.Module.Clone()
	}
	opt := OptAll
	opt.Roots = []string{b.Entry}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if _, err := Instrument(mods[next], nil, nil, opt); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if n > 4582/2 {
		t.Errorf("Instrument(all) on radiosity: %v allocations, want at most %d", n, 4582/2)
	}
	t.Logf("Instrument(all) on radiosity: %v allocations", n)
}
