package ir

import (
	"strings"
	"testing"
)

// buildDiamond returns a function with the classic if/else diamond:
// entry -> {then, else} -> merge(ret).
func buildDiamond(t *testing.T) (*Module, *Func) {
	t.Helper()
	mb := NewModule("diamond")
	fb := mb.Func("f", "x")
	x := fb.Reg("x")
	c := fb.Reg("c")
	y := fb.Reg("y")
	fb.Block("entry").
		Bin(OpLT, c, R(x), Imm(10)).
		Br(R(c), "then", "else")
	fb.Block("then").
		Bin(OpAdd, y, R(x), Imm(1)).
		Jmp("merge")
	fb.Block("else").
		Bin(OpSub, y, R(x), Imm(1)).
		Jmp("merge")
	fb.Block("merge").Ret(R(y))
	if err := mb.M.Verify(nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return mb.M, mb.M.Func("f")
}

// buildLoop returns: entry -> header -> {body -> latch -> header, exit}.
func buildLoop(t *testing.T) (*Module, *Func) {
	t.Helper()
	mb := NewModule("loop")
	fb := mb.Func("f", "n")
	n := fb.Reg("n")
	i := fb.Reg("i")
	c := fb.Reg("c")
	s := fb.Reg("s")
	fb.Block("entry").Const(i, 0).Const(s, 0).Jmp("header")
	fb.Block("header").Bin(OpLT, c, R(i), R(n)).Br(R(c), "body", "exit")
	fb.Block("body").Bin(OpAdd, s, R(s), R(i)).Jmp("latch")
	fb.Block("latch").Bin(OpAdd, i, R(i), Imm(1)).Jmp("header")
	fb.Block("exit").Ret(R(s))
	if err := mb.M.Verify(nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return mb.M, mb.M.Func("f")
}

func TestBuilderBasics(t *testing.T) {
	_, f := buildDiamond(t)
	if f.Entry().Name != "entry" {
		t.Fatalf("entry = %q", f.Entry().Name)
	}
	if got := len(f.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	if f.NumParams != 1 {
		t.Fatalf("params = %d", f.NumParams)
	}
	if got := len(f.Entry().Succs()); got != 2 {
		t.Fatalf("entry succs = %d", got)
	}
}

func TestPreds(t *testing.T) {
	_, f := buildDiamond(t)
	preds := Analyze(f).Preds
	merge := f.Block("merge")
	if got := len(preds[merge.Index]); got != 2 {
		t.Fatalf("merge preds = %d, want 2", got)
	}
	if got := len(preds[f.Entry().Index]); got != 0 {
		t.Fatalf("entry preds = %d, want 0", got)
	}
}

func TestReversePostorder(t *testing.T) {
	_, f := buildDiamond(t)
	rpo := Analyze(f).RPO
	if len(rpo) != 4 {
		t.Fatalf("rpo len = %d", len(rpo))
	}
	if rpo[0].Name != "entry" {
		t.Fatalf("rpo[0] = %q", rpo[0].Name)
	}
	if rpo[len(rpo)-1].Name != "merge" {
		t.Fatalf("rpo last = %q", rpo[len(rpo)-1].Name)
	}
}

func TestDominators(t *testing.T) {
	_, f := buildDiamond(t)
	dt := Analyze(f).Dom
	entry := f.Block("entry")
	then := f.Block("then")
	els := f.Block("else")
	merge := f.Block("merge")
	if dt.Idom(entry) != nil {
		t.Fatalf("entry idom should be nil")
	}
	if dt.Idom(then) != entry || dt.Idom(els) != entry {
		t.Fatalf("then/else idom should be entry")
	}
	if dt.Idom(merge) != entry {
		t.Fatalf("merge idom = %v, want entry", dt.Idom(merge).Name)
	}
	if !dt.Dominates(entry, merge) {
		t.Fatalf("entry should dominate merge")
	}
	if dt.Dominates(then, merge) {
		t.Fatalf("then should not dominate merge")
	}
	if !dt.Dominates(merge, merge) {
		t.Fatalf("dominance should be reflexive")
	}
}

func TestDominatorsLoop(t *testing.T) {
	_, f := buildLoop(t)
	dt := Analyze(f).Dom
	header := f.Block("header")
	body := f.Block("body")
	latch := f.Block("latch")
	exit := f.Block("exit")
	if !dt.Dominates(header, body) || !dt.Dominates(header, latch) || !dt.Dominates(header, exit) {
		t.Fatalf("header should dominate loop body and exit")
	}
	if dt.Dominates(body, header) {
		t.Fatalf("body should not dominate header")
	}
}

func TestLoopInfo(t *testing.T) {
	_, f := buildLoop(t)
	li := Analyze(f).Loops
	if len(li.BackEdges) != 1 {
		t.Fatalf("back edges = %d, want 1", len(li.BackEdges))
	}
	be := li.BackEdges[0]
	if be.From.Name != "latch" || be.To.Name != "header" {
		t.Fatalf("back edge %s->%s", be.From.Name, be.To.Name)
	}
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d", len(li.Loops))
	}
	l := li.Loops[0]
	for _, name := range []string{"header", "body", "latch"} {
		if !l.Contains(f.Block(name)) {
			t.Fatalf("loop should contain %s", name)
		}
	}
	if l.Contains(f.Block("exit")) || l.Contains(f.Block("entry")) {
		t.Fatalf("loop should not contain entry/exit")
	}
	if li.Depth(f.Block("body")) != 1 || li.Depth(f.Block("exit")) != 0 {
		t.Fatalf("bad loop depths")
	}
	if !li.IsHeader(f.Block("header")) || li.IsHeader(f.Block("body")) {
		t.Fatalf("bad header detection")
	}
	if !li.IsBackEdge(f.Block("latch"), f.Block("header")) {
		t.Fatalf("IsBackEdge false for latch->header")
	}
}

func TestNestedLoopDepth(t *testing.T) {
	mb := NewModule("nest")
	fb := mb.Func("f")
	c := fb.Reg("c")
	fb.Block("entry").Jmp("outer")
	fb.Block("outer").Bin(OpLT, c, Imm(0), Imm(1)).Br(R(c), "inner", "exit")
	fb.Block("inner").Br(R(c), "inner.latch", "outer.latch")
	fb.Block("inner.latch").Jmp("inner")
	fb.Block("outer.latch").Jmp("outer")
	fb.Block("exit").Ret(Imm(0))
	f := mb.M.Func("f")
	li := Analyze(f).Loops
	if got := li.Depth(f.Block("inner")); got != 2 {
		t.Fatalf("inner depth = %d, want 2", got)
	}
	if got := li.Depth(f.Block("outer")); got != 1 {
		t.Fatalf("outer depth = %d, want 1", got)
	}
}

func TestHasLoops(t *testing.T) {
	_, f1 := buildDiamond(t)
	if f1.HasLoops() {
		t.Fatalf("diamond should be loop-free")
	}
	_, f2 := buildLoop(t)
	if !f2.HasLoops() {
		t.Fatalf("loop function should have loops")
	}
}

// splitOnce returns a SplitBlocks cut that splits target at i, once.
func splitOnce(target *Block, i int, name string) func(*Block) (int, string) {
	return func(b *Block) (int, string) {
		if b != target {
			return -1, ""
		}
		target = nil
		return i, name
	}
}

func TestSplitAt(t *testing.T) {
	_, f := buildDiamond(t)
	entry := f.Entry()
	if n := f.SplitBlocks(splitOnce(entry, 1, "split.entry")); n != 1 {
		t.Fatalf("SplitBlocks = %d splits, want 1", n)
	}
	nb := f.Blocks[1]
	if len(entry.Instrs) != 1 {
		t.Fatalf("entry kept %d instrs", len(entry.Instrs))
	}
	if entry.Term.Kind != TermJmp || entry.Term.Succs[0] != nb {
		t.Fatalf("entry should jmp to the split block, which follows it")
	}
	if nb.Name != "split.entry" || nb.Term.Kind != TermBr {
		t.Fatalf("split block %q should inherit br terminator", nb.Name)
	}
	for i, b := range f.Blocks {
		if b.Index != i {
			t.Fatalf("block %q index %d at position %d", b.Name, b.Index, i)
		}
	}
	if err := f.Module.Verify(nil); err != nil {
		t.Fatalf("Verify after split: %v", err)
	}
}

func TestSplitAtZeroKeepsEmptyBlock(t *testing.T) {
	_, f := buildDiamond(t)
	entry := f.Entry()
	f.SplitBlocks(splitOnce(entry, 0, "tail"))
	if len(entry.Instrs) != 0 {
		t.Fatalf("entry should be empty after split at 0")
	}
	if nb := f.Blocks[1]; nb.Name != "tail" || len(nb.Instrs) != 1 {
		t.Fatalf("tail should hold the instruction")
	}
}

// TestSplitBlocksChain splits one block twice in a single pass: the new block
// is offered to cut again, and the halves must not share appendable capacity.
func TestSplitBlocksChain(t *testing.T) {
	mb := NewModule("m")
	fb := mb.Func("f")
	r := fb.Reg("r")
	bb := fb.Block("entry")
	for i := 0; i < 4; i++ {
		bb.Const(r, int64(i))
	}
	bb.Ret(R(r))
	f := fb.F
	n := f.SplitBlocks(func(b *Block) (int, string) {
		if len(b.Instrs) > 1 {
			return 1, "tail"
		}
		return -1, ""
	})
	if n != 3 || len(f.Blocks) != 4 {
		t.Fatalf("%d splits, %d blocks; want 3 and 4", n, len(f.Blocks))
	}
	for i, want := range []string{"entry", "tail", "tail.1", "tail.2"} {
		b := f.Blocks[i]
		if b.Name != want || len(b.Instrs) != 1 || b.Instrs[0].A.Imm != int64(i) {
			t.Fatalf("block %d = %q %v, want %q holding const %d", i, b.Name, b.Instrs, want, i)
		}
	}
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, Instr{Op: OpConst, Dst: r, A: Imm(99)})
	if f.Blocks[1].Instrs[0].A.Imm != 1 {
		t.Fatalf("append to the first half overwrote the second")
	}
	if f.Blocks[3].Term.Kind != TermRet {
		t.Fatalf("last block should hold the original terminator")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, f := buildDiamond(t)
	f.Entry().Clock = 42
	clone := m.Clone()
	cf := clone.Func("f")
	if cf == f {
		t.Fatalf("clone returned same function")
	}
	if cf.Entry().Clock != 42 {
		t.Fatalf("clone lost clock metadata")
	}
	cf.Entry().Clock = 7
	cf.Entry().Instrs[0].A = Imm(99)
	if f.Entry().Clock != 42 {
		t.Fatalf("clone mutation leaked into original clock")
	}
	if f.Entry().Instrs[0].A.Imm == 99 {
		t.Fatalf("clone mutation leaked into original instrs")
	}
	// Successor pointers must point into the clone, not the original.
	for _, b := range cf.Blocks {
		for _, s := range b.Term.Succs {
			if s.Func != cf {
				t.Fatalf("clone successor %q points outside clone", s.Name)
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	add := Instr{Op: OpAdd}
	if cm.InstrCost(&add) != 1 {
		t.Fatalf("add cost = %d", cm.InstrCost(&add))
	}
	div := Instr{Op: OpDiv}
	if cm.InstrCost(&div) != 12 {
		t.Fatalf("div cost = %d", cm.InstrCost(&div))
	}
	ca := Instr{Op: OpClockAdd, A: Imm(100)}
	if cm.InstrCost(&ca) != 0 {
		t.Fatalf("clockadd logical cost should be 0")
	}
	if cm.PhysicalInstrCost(&ca) != cm.ClockUpdateCost {
		t.Fatalf("clockadd physical cost should be ClockUpdateCost")
	}
	_, f := buildDiamond(t)
	got := cm.BlockCost(f.Entry())
	// entry: lt (1) + br (1) = 2
	if got != 2 {
		t.Fatalf("entry block cost = %d, want 2", got)
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	mb := NewModule("bad")
	fb := mb.Func("f")
	r := fb.Reg("r")
	fb.Block("entry").
		Load(r, "nosuch", Imm(0)).
		Call(r, "missing").
		Ret(R(r))
	err := mb.M.Verify(nil)
	if err == nil {
		t.Fatalf("Verify should fail")
	}
	msg := err.Error()
	for _, want := range []string{"undefined global", "undefined function"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestVerifyBuiltinAllowed(t *testing.T) {
	mb := NewModule("b")
	fb := mb.Func("f")
	r := fb.Reg("r")
	fb.Block("entry").Call(r, "memset", Imm(0), Imm(100)).Ret(R(r))
	if err := mb.M.Verify(func(n string) bool { return n == "memset" }); err != nil {
		t.Fatalf("builtin call should verify: %v", err)
	}
	if err := mb.M.Verify(nil); err == nil {
		t.Fatalf("without builtins, call should fail verification")
	}
}

func TestVerifyArgCount(t *testing.T) {
	mb := NewModule("argc")
	g := mb.Func("g", "a", "b")
	g.Block("entry").Ret(Imm(0))
	fb := mb.Func("f")
	r := fb.Reg("r")
	fb.Block("entry").Call(r, "g", Imm(1)).Ret(R(r))
	if err := mb.M.Verify(nil); err == nil || !strings.Contains(err.Error(), "wants 2") {
		t.Fatalf("arity mismatch not caught: %v", err)
	}
}

func TestVerifyLockRange(t *testing.T) {
	mb := NewModule("locks")
	mb.Locks(2)
	fb := mb.Func("f")
	fb.Block("entry").Lock(Imm(5)).Ret(Imm(0))
	if err := mb.M.Verify(nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("lock range not caught: %v", err)
	}
}

func TestUniqueBlockNames(t *testing.T) {
	_, f := buildDiamond(t)
	f.SplitBlocks(splitOnce(f.Entry(), 0, "then"))
	if b1 := f.Blocks[1]; b1.Name == "then" {
		t.Fatalf("split block stole existing name")
	}
}

func TestTotalBlockClock(t *testing.T) {
	m, f := buildDiamond(t)
	f.Block("then").Clock = 5
	f.Block("else").Clock = 7
	if got := m.TotalBlockClock(); got != 12 {
		t.Fatalf("TotalBlockClock = %d, want 12", got)
	}
}

func TestOperandString(t *testing.T) {
	if R(3).String() != "r3" {
		t.Fatalf("R(3) = %q", R(3))
	}
	if Imm(-7).String() != "-7" {
		t.Fatalf("Imm(-7) = %q", Imm(-7))
	}
}

func TestSanitizeName(t *testing.T) {
	got := sanitizeName("_Z17intersection_typeP6 patch?")
	if strings.ContainsAny(got, " ?") {
		t.Fatalf("sanitize left bad runes: %q", got)
	}
}
