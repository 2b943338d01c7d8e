// Package ir implements the small compiler intermediate representation that
// the DetLock pass operates on.
//
// The paper's DetLock pass runs on LLVM IR; this package provides the
// equivalent substrate: functions made of basic blocks holding register
// instructions, an explicit control-flow graph with dominators and natural
// loops, a cost model mapping instructions to logical-clock units, a textual
// format, and path-enumeration utilities used by the clockability analyses
// (Optimizations 1 and 3 of the paper).
//
// The IR is deliberately register-based and non-SSA: each function owns a
// flat register file, which keeps the interpreter simple and keeps the clock
// optimizations — which only read block structure, calls, dominators and
// loops — faithful to the paper's pseudocode.
package ir

import (
	"strconv"
	"strings"
)

// Op identifies an instruction opcode.
type Op uint8

// Instruction opcodes. Arithmetic is over int64. Comparison ops produce 0/1.
const (
	OpConst    Op = iota // Dst = A.Imm
	OpMov                // Dst = A
	OpAdd                // Dst = A + B
	OpSub                // Dst = A - B
	OpMul                // Dst = A * B
	OpDiv                // Dst = A / B (0 if B == 0)
	OpMod                // Dst = A % B (0 if B == 0)
	OpAnd                // Dst = A & B
	OpOr                 // Dst = A | B
	OpXor                // Dst = A ^ B
	OpShl                // Dst = A << (B & 63)
	OpShr                // Dst = A >> (B & 63) (arithmetic)
	OpNeg                // Dst = -A
	OpNot                // Dst = ^A
	OpEQ                 // Dst = A == B
	OpNE                 // Dst = A != B
	OpLT                 // Dst = A < B
	OpLE                 // Dst = A <= B
	OpGT                 // Dst = A > B
	OpGE                 // Dst = A >= B
	OpLoad               // Dst = mem[Sym][A]
	OpStore              // mem[Sym][A] = B
	OpCall               // Dst = Callee(Args...)
	OpLock               // acquire mutex A (deterministic under DetLock runtime)
	OpUnlock             // release mutex A
	OpBarrier            // barrier A
	OpTid                // Dst = thread id
	OpNThreads           // Dst = number of threads
	OpPrint              // append A to the thread's output log
	OpClockAdd           // logical clock += A.Imm + Scale*B  (inserted by the pass)
	OpSpawn              // Dst = handle of a new thread running Callee(Args...)
	OpJoin               // wait for thread handle A to finish
	opMax
)

var opNames = [opMax]string{
	OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpEQ: "eq", OpNE: "ne", OpLT: "lt", OpLE: "le", OpGT: "gt", OpGE: "ge",
	OpLoad: "load", OpStore: "store", OpCall: "call",
	OpLock: "lock", OpUnlock: "unlock", OpBarrier: "barrier",
	OpTid: "tid", OpNThreads: "nthreads", OpPrint: "print",
	OpClockAdd: "clockadd", OpSpawn: "spawn", OpJoin: "join",
}

// String returns the assembly mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// IsBinary reports whether the op takes two value operands A and B.
func (o Op) IsBinary() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE:
		return true
	}
	return false
}

// IsUnary reports whether the op takes a single value operand A.
func (o Op) IsUnary() bool {
	switch o {
	case OpMov, OpNeg, OpNot:
		return true
	}
	return false
}

// HasDst reports whether the instruction writes a destination register.
func (o Op) HasDst() bool {
	switch o {
	case OpStore, OpLock, OpUnlock, OpBarrier, OpPrint, OpClockAdd, OpJoin:
		return false
	}
	return true
}

// Reg is an index into a function's register file. NoReg marks "no register".
type Reg int32

// NoReg is the sentinel for an absent register (e.g. a discarded call result).
const NoReg Reg = -1

// Operand is either a register reference or an immediate value.
type Operand struct {
	Reg   Reg
	Imm   int64
	IsImm bool
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Imm: v, IsImm: true, Reg: NoReg} }

// Instr is a single (non-terminator) instruction.
//
// Field use by opcode:
//
//	binary ops    Dst, A, B
//	unary ops     Dst, A
//	OpConst       Dst, A.Imm
//	OpLoad        Dst, Sym, A (index)
//	OpStore       Sym, A (index), B (value)
//	OpCall        Dst (may be NoReg), Callee, Args
//	OpLock etc.   A (object id)
//	OpClockAdd    A.Imm (static amount), optionally Scale and B (dynamic term)
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Operand
	Sym    string    // global symbol for load/store
	Callee string    // function or builtin name for call
	Args   []Operand // call arguments
	Scale  int64     // clockadd dynamic multiplier (clock += A.Imm + Scale*B)
}

// TermKind discriminates block terminators.
type TermKind uint8

// Terminator kinds.
const (
	TermJmp    TermKind = iota // unconditional jump to Succs[0]
	TermBr                     // conditional: Cond != 0 -> Succs[0], else Succs[1]
	TermSwitch                 // Cond == Cases[i] -> Succs[i]; default Succs[len(Cases)]
	TermRet                    // return Ret
)

// Term is a block terminator. Succs lists successor blocks in decision order.
type Term struct {
	Kind  TermKind
	Cond  Operand
	Cases []int64
	Succs []*Block
	Ret   Operand
}

// unset reports whether t is still the zero Term: the parser leaves one on a
// block that is only ever named as a branch target (Verify reports it).
func (t *Term) unset() bool { return t.Kind == TermJmp && len(t.Succs) == 0 }

// Block is a basic block: a straight-line instruction list plus a terminator.
type Block struct {
	Name   string
	Index  int // position within Func.Blocks, maintained by Func
	Func   *Func
	Instrs []Instr
	Term   Term

	// Clock is the pass-managed logical-clock value charged to this block.
	// It is populated by the DetLock pass (package core) from the cost model
	// and then shuffled around by the optimizations; instrumentation finally
	// materializes it as an OpClockAdd instruction.
	Clock int64

	// Unclockable marks blocks containing calls to unclocked functions (or
	// dynamic-cost builtins); the paper's optimizations skip such blocks.
	Unclockable bool
}

// Succs returns the block's successors (aliasing the terminator's slice).
func (b *Block) Succs() []*Block { return b.Term.Succs }

// Func is a function: named, with NumParams parameters (registers 0..NumParams-1),
// a register file of NumRegs registers, and a list of basic blocks whose first
// element is the entry block.
type Func struct {
	Name      string
	NumParams int
	NumRegs   int
	Blocks    []*Block
	Module    *Module

	// RegNames optionally maps registers to source-level names (debugging).
	RegNames []string
}

// Entry returns the function's entry block, or nil if the function is empty.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Block returns the block with the given name, or nil.
func (f *Func) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// reindex refreshes Block.Index after structural edits.
func (f *Func) reindex() {
	for i, b := range f.Blocks {
		b.Index = i
		b.Func = f
	}
}

// HasLoops reports whether a cycle is reachable from the function's entry.
func (f *Func) HasLoops() bool {
	f.reindex()
	// 0 unseen, 1 on the DFS stack, 2 finished.
	state := make([]uint8, len(f.Blocks))
	var cyclic func(b *Block) bool
	cyclic = func(b *Block) bool {
		state[b.Index] = 1
		for _, s := range b.Term.Succs {
			if state[s.Index] == 1 || state[s.Index] == 0 && cyclic(s) {
				return true
			}
		}
		state[b.Index] = 2
		return false
	}
	return len(f.Blocks) > 0 && cyclic(f.Blocks[0])
}

// Global is a module-level memory region of Size int64 words, optionally with
// initial data (zero-extended to Size).
type Global struct {
	Name string
	Size int64
	Init []int64
}

// Module is a compilation unit: functions plus global memory regions and the
// number of synchronization objects the program uses.
type Module struct {
	Name     string
	Funcs    []*Func
	Globals  []*Global
	NumLocks int // number of mutex objects (lock ids are 0..NumLocks-1)
	NumBars  int // number of barrier objects
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddGlobal defines (or resizes) a global region and returns it.
func (m *Module) AddGlobal(name string, size int64) *Global {
	if g := m.Global(name); g != nil {
		if size > g.Size {
			g.Size = size
		}
		return g
	}
	g := &Global{Name: name, Size: size}
	m.Globals = append(m.Globals, g)
	return g
}

// Clone deep-copies the module. The DetLock pass mutates block structure and
// clock metadata, so experiments instrument a clone per configuration.
func (m *Module) Clone() *Module {
	nm := &Module{Name: m.Name, NumLocks: m.NumLocks, NumBars: m.NumBars}
	for _, g := range m.Globals {
		ng := &Global{Name: g.Name, Size: g.Size}
		ng.Init = append(ng.Init, g.Init...)
		nm.Globals = append(nm.Globals, ng)
	}
	for _, f := range m.Funcs {
		nf := &Func{
			Name:      f.Name,
			NumParams: f.NumParams,
			NumRegs:   f.NumRegs,
			Module:    nm,
		}
		nf.RegNames = append(nf.RegNames, f.RegNames...)
		blockMap := make(map[*Block]*Block, len(f.Blocks))
		for _, b := range f.Blocks {
			nb := &Block{
				Name:        b.Name,
				Func:        nf,
				Clock:       b.Clock,
				Unclockable: b.Unclockable,
			}
			nb.Instrs = make([]Instr, len(b.Instrs))
			for i, ins := range b.Instrs {
				nins := ins
				nins.Args = append([]Operand(nil), ins.Args...)
				nb.Instrs[i] = nins
			}
			nb.Term = Term{
				Kind:  b.Term.Kind,
				Cond:  b.Term.Cond,
				Ret:   b.Term.Ret,
				Cases: append([]int64(nil), b.Term.Cases...),
			}
			blockMap[b] = nb
			nf.Blocks = append(nf.Blocks, nb)
		}
		for _, b := range f.Blocks {
			nb := blockMap[b]
			for _, s := range b.Term.Succs {
				nb.Term.Succs = append(nb.Term.Succs, blockMap[s])
			}
		}
		nf.reindex()
		nm.Funcs = append(nm.Funcs, nf)
	}
	return nm
}

// TotalBlockClock sums Block.Clock over all blocks of all functions; used by
// pass statistics and conservation tests.
func (m *Module) TotalBlockClock() int64 {
	var t int64
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			t += b.Clock
		}
	}
	return t
}

// SplitBlocks splits blocks wherever cut says to, in one pass that builds
// the function's new block list. cut(b) returns the instruction index at
// which to split b and the name wanted for the new block, or a negative index
// to leave b whole. Instructions [i:] move to the new block, which is placed
// right after b, inherits b's terminator and successors, and is offered to
// cut in its turn; b jumps to it. A name already in use gets a ".N" suffix.
// Clock metadata stays with b; callers decide how to redistribute. Returns
// the number of splits.
func (f *Func) SplitBlocks(cut func(b *Block) (i int, name string)) int {
	out := make([]*Block, 0, 2*len(f.Blocks))
	var used map[string]bool
	for _, b := range f.Blocks {
		for {
			out = append(out, b)
			i, base := cut(b)
			if i < 0 {
				break
			}
			if used == nil {
				used = make(map[string]bool, 2*len(f.Blocks))
				for _, x := range f.Blocks {
					used[x.Name] = true
				}
			}
			name := base
			for n := 1; used[name]; n++ {
				name = base + "." + strconv.Itoa(n)
			}
			used[name] = true
			// The two halves share b's backing array; b's is capped so that
			// an append to it cannot reach the new block's instructions.
			nb := &Block{Name: name, Func: f, Instrs: b.Instrs[i:], Term: b.Term}
			b.Instrs = b.Instrs[:i:i]
			b.Term = Term{Kind: TermJmp, Succs: []*Block{nb}}
			b = nb
		}
	}
	splits := len(out) - len(f.Blocks)
	f.Blocks = out
	f.reindex()
	return splits
}

// sanitizeName restricts names to the identifier charset accepted by the
// textual parser, mapping other runes to '_'.
func sanitizeName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == '.', r == '$':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
