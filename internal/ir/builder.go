package ir

// ModuleBuilder constructs a Module programmatically. It is the API used by
// the synthetic SPLASH-like workload generators (package splash) and by tests.
type ModuleBuilder struct {
	M *Module
}

// NewModule returns a builder for a fresh module.
func NewModule(name string) *ModuleBuilder {
	return &ModuleBuilder{M: &Module{Name: name}}
}

// Global declares a global memory region.
func (mb *ModuleBuilder) Global(name string, size int64) *Global {
	return mb.M.AddGlobal(name, size)
}

// GlobalInit declares a global with initial contents.
func (mb *ModuleBuilder) GlobalInit(name string, data []int64) *Global {
	g := mb.M.AddGlobal(name, int64(len(data)))
	g.Init = append([]int64(nil), data...)
	return g
}

// Locks reserves n mutex ids (0..n-1).
func (mb *ModuleBuilder) Locks(n int) { mb.M.NumLocks = n }

// Barriers reserves n barrier ids.
func (mb *ModuleBuilder) Barriers(n int) { mb.M.NumBars = n }

// Func starts a new function with the given parameter names. Parameters are
// bound to registers 0..len(params)-1.
func (mb *ModuleBuilder) Func(name string, params ...string) *FuncBuilder {
	f := &Func{Name: sanitizeName(name), NumParams: len(params), Module: mb.M}
	fb := &FuncBuilder{F: f, mb: mb, regs: map[string]Reg{}}
	for _, p := range params {
		fb.Reg(p)
	}
	mb.M.Funcs = append(mb.M.Funcs, f)
	return fb
}

// FuncBuilder constructs one function: register allocation plus block
// construction helpers.
type FuncBuilder struct {
	F    *Func
	mb   *ModuleBuilder
	regs map[string]Reg
	cur  *BlockBuilder
}

// Reg returns the register bound to name, allocating it on first use.
func (fb *FuncBuilder) Reg(name string) Reg {
	if r, ok := fb.regs[name]; ok {
		return r
	}
	r := Reg(fb.F.NumRegs)
	fb.F.NumRegs++
	fb.regs[name] = r
	fb.F.RegNames = append(fb.F.RegNames, name)
	return r
}

// Block creates (or returns) the named block and makes it current.
func (fb *FuncBuilder) Block(name string) *BlockBuilder {
	name = sanitizeName(name)
	if b := fb.F.Block(name); b != nil {
		fb.cur = &BlockBuilder{B: b, fb: fb}
		return fb.cur
	}
	b := &Block{Name: name, Func: fb.F, Index: len(fb.F.Blocks)}
	fb.F.Blocks = append(fb.F.Blocks, b)
	fb.cur = &BlockBuilder{B: b, fb: fb}
	return fb.cur
}

// BlockBuilder appends instructions and sets the terminator of one block.
type BlockBuilder struct {
	B  *Block
	fb *FuncBuilder
}

func (bb *BlockBuilder) add(i Instr) *BlockBuilder {
	bb.B.Instrs = append(bb.B.Instrs, i)
	return bb
}

// Const sets dst to an immediate.
func (bb *BlockBuilder) Const(dst Reg, v int64) *BlockBuilder {
	return bb.add(Instr{Op: OpConst, Dst: dst, A: Imm(v)})
}

// Mov copies a into dst.
func (bb *BlockBuilder) Mov(dst Reg, a Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpMov, Dst: dst, A: a})
}

// Bin appends a binary arithmetic/compare instruction.
func (bb *BlockBuilder) Bin(op Op, dst Reg, a, b Operand) *BlockBuilder {
	if !op.IsBinary() {
		panic("ir: Bin with non-binary op " + op.String())
	}
	return bb.add(Instr{Op: op, Dst: dst, A: a, B: b})
}

// Load reads mem[sym][idx] into dst.
func (bb *BlockBuilder) Load(dst Reg, sym string, idx Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpLoad, Dst: dst, Sym: sym, A: idx})
}

// Store writes val to mem[sym][idx].
func (bb *BlockBuilder) Store(sym string, idx, val Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpStore, Sym: sym, A: idx, B: val})
}

// Call invokes callee; dst may be NoReg to discard the result.
func (bb *BlockBuilder) Call(dst Reg, callee string, args ...Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpCall, Dst: dst, Callee: sanitizeName(callee), Args: args})
}

// Lock acquires mutex id.
func (bb *BlockBuilder) Lock(id Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpLock, A: id})
}

// Unlock releases mutex id.
func (bb *BlockBuilder) Unlock(id Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpUnlock, A: id})
}

// Barrier waits at barrier id.
func (bb *BlockBuilder) Barrier(id Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpBarrier, A: id})
}

// Tid sets dst to the executing thread's id.
func (bb *BlockBuilder) Tid(dst Reg) *BlockBuilder {
	return bb.add(Instr{Op: OpTid, Dst: dst})
}

// NThreads sets dst to the thread count.
func (bb *BlockBuilder) NThreads(dst Reg) *BlockBuilder {
	return bb.add(Instr{Op: OpNThreads, Dst: dst})
}

// Print appends a to the thread's deterministic output log.
func (bb *BlockBuilder) Print(a Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpPrint, A: a})
}

// Spawn starts a new deterministic thread running callee; dst receives its
// handle for Join.
func (bb *BlockBuilder) Spawn(dst Reg, callee string, args ...Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpSpawn, Dst: dst, Callee: sanitizeName(callee), Args: args})
}

// Join blocks until the thread with handle h finishes.
func (bb *BlockBuilder) Join(h Operand) *BlockBuilder {
	return bb.add(Instr{Op: OpJoin, A: h})
}

// Jmp terminates the block with an unconditional jump.
func (bb *BlockBuilder) Jmp(to string) {
	bb.B.Term = Term{Kind: TermJmp, Succs: []*Block{bb.fb.Block(to).B}}
	bb.restore()
}

// Br terminates the block with a conditional branch.
func (bb *BlockBuilder) Br(cond Operand, then, els string) {
	t := bb.fb.Block(then).B
	e := bb.fb.Block(els).B
	bb.B.Term = Term{Kind: TermBr, Cond: cond, Succs: []*Block{t, e}}
	bb.restore()
}

// Switch terminates the block with a multi-way branch: cond == cases[i] jumps
// to targets[i]; otherwise to def.
func (bb *BlockBuilder) Switch(cond Operand, cases []int64, targets []string, def string) {
	if len(cases) != len(targets) {
		panic("ir: Switch cases/targets length mismatch")
	}
	t := Term{Kind: TermSwitch, Cond: cond, Cases: append([]int64(nil), cases...)}
	for _, name := range targets {
		t.Succs = append(t.Succs, bb.fb.Block(name).B)
	}
	t.Succs = append(t.Succs, bb.fb.Block(def).B)
	bb.B.Term = t
	bb.restore()
}

// Ret terminates the block with a return.
func (bb *BlockBuilder) Ret(v Operand) {
	bb.B.Term = Term{Kind: TermRet, Ret: v}
	bb.restore()
}

// restore re-selects this block as current in the FuncBuilder so that
// Block(...) calls made by terminator helpers (to resolve forward targets)
// don't leave the builder pointing elsewhere.
func (bb *BlockBuilder) restore() { bb.fb.cur = bb }
