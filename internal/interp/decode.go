package interp

// Decoded-dispatch interpreter: the hot path of the whole simulation
// pipeline.
//
// The reference interpreter (interp.go, kept selectable via
// Config.Reference) walks ir.Block/ir.Instr structures directly: every step
// re-reads boxed ir.Operand values through Thread.val, re-computes
// per-instruction costs through the cost model's switch, and resolves every
// load/store symbol through the globals map. Profiling shows those
// indirections dominate the entire sweep.
//
// The decoded path removes all of them ahead of time. Each ir.Func is
// decoded ONCE into a flat []dinstr stream:
//
//   - blocks are laid out consecutively and terminators become ordinary
//     decoded instructions, so execution is a single pc walk with branch
//     targets as precomputed indices — no per-block bounds bookkeeping;
//   - every operand is resolved to a register index: immediates get slots in
//     a per-function constant pool appended to the register file (dcode.tmpl
//     seeds each new frame), and ir.NoReg destinations map to a scratch
//     register, so the dispatch loop never branches on operand kind;
//   - physical and logical (Kendo) costs are precomputed per instruction;
//   - runs of same-register immediate adds fold (dAddRun): one dispatch
//     runs every add of the run the reference runs before its next yield;
//   - loads and stores carry the global's slot index, size, and flat base
//     address, so the cache-miss model and the race detector see the exact
//     addresses the reference path computes without any map lookup;
//   - calls resolve their callee (user function or builtin estimate) at
//     decode time; rarely-touched fields live in a side table (daux) so the
//     hot dinstr is exactly one 64-byte cache line.
//
// Decoded streams reference globals by slot, never by buffer, so they are
// machine-independent: Config.DCache can share them across every machine
// built over the same module/cost-model/estimates (the table sweeps run
// hundreds of such machines).
//
// Equivalence contract: the decoded loop yields at EXACTLY the same points
// as the reference loop (clock updates, sync ops, Kendo overflows, the
// MaxStepCycles bound, completion) with identical cycle, clock, and stats
// accounting, identical error strings, and identical race-detector access
// sequences. TestDecodedEquivalence (equiv_test.go: every opcode, a yield at
// each position of a folded add run, and every runtime fault, under DetLock,
// Kendo and FCFS) and the harness's 20-seed SPLASH property assert this
// byte-for-byte. stepFast's comment gives the loop's register discipline.

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/sim"
)

// rload/rstore access the register file without bounds checks: the profile
// shows the checks on regs[d.dst]/regs[d.a]/regs[d.b] are a double-digit
// share of the dispatch loop. Soundness: decode validates every register
// index and branch target against the function it just decoded (see
// validate), and pushFast sizes every register file to exactly
// dcode.numRegs, so i ∈ [0, len(regs)) at every call site.
func rload(rp unsafe.Pointer, i int32) int64 {
	return *(*int64)(unsafe.Add(rp, uintptr(i)*8))
}

func rstore(rp unsafe.Pointer, i int32, v int64) {
	*(*int64)(unsafe.Add(rp, uintptr(i)*8)) = v
}

// dop is a decoded opcode. The exec switch over dop compiles to a dense
// jump table.
type dop uint8

const (
	dBadOp dop = iota // undecodable opcode: reproduces the reference error lazily

	dConst // dst = aImm
	dMov   // dst = a
	dAdd
	dSub
	dMul
	dDiv
	dMod
	dAnd
	dOr
	dXor
	dShl
	dShr
	dNeg
	dNot
	dEQ
	dNE
	dLT
	dLE
	dGT
	dGE
	dLoad     // dst = globals[gslot][a]
	dStore    // globals[gslot][a] = b
	dCall     // user-function call (aux: callee, args)
	dCallB    // builtin call (aux: estimate, builtin kind, args)
	dBadCall  // call to unknown builtin: lazy error
	dSpawn    // aux: callee func, args
	dBadSpawn // spawn of unknown function: lazy error
	dJoin     // yield StepJoin(obj=a)
	dLock     // yield StepLock(obj=a)
	dUnlock   // yield StepUnlock(obj=a)
	dBarrier  // yield StepBarrier(obj=a)
	dTid      // dst = thread id
	dNThreads // dst = thread count
	dPrint    // append a to output log
	dClockAdd // DetLock-mode clock update: yield StepAdvance with delta
	dClockNop // clockadd under Kendo: physical cost only, no effect
	dJmp      // pc = tgt
	dBr       // pc = a != 0 ? tgt : tgt2
	dSwitch   // aux: cases/targets
	dRet      // return a
	dBadTerm  // malformed terminator: lazy error

	// dAddRun heads a run of same-register immediate adds (rN = add rN, imm),
	// the SPLASH models' compute padding and half of what the sweep
	// executes. foldAddRuns gives each slot of a run the count (tgt) and
	// immediate sum (aImm) from that slot to the run's end, and makes every
	// slot but the last (a plain dAdd) a dAddRun. stepFast runs in one
	// dispatch every add of the run the reference runs before its next
	// yield, so a branch, or a resumption after a mid-run yield, may enter
	// at any slot.
	dAddRun
)

// dinstr is one decoded instruction: exactly 64 bytes, so the stream packs
// one instruction per cache line. Hot fields only; everything that is not
// touched by the arithmetic/memory fast path lives in daux (selected by the
// aux index).
type dinstr struct {
	op    dop
	dst   int32 // destination register (scratch register for ir.NoReg)
	a, b  int32 // operand register index (immediates live in the const pool)
	aux   int32 // index into dcode.aux, -1 when unused
	tgt   int32 // branch target (jmp, br-true); add-run length from this slot
	tgt2  int32 // br-false target
	cost  int32 // physical cycles (CostModel.PhysicalInstrCost / TermCost)
	kcost int32 // logical cost accrued on the Kendo counter (CostModel.InstrCost)
	gslot int32 // load/store global slot (machine gtab/gptrs index)
	glen  int32 // load/store global size, for the bounds check
	aImm  int64 // dConst value; dClockAdd base delta; add-run immediate sum
	// gbase is the flat address base of the global for loads and stores
	// (cache model, race detector). Reused as the clockadd dynamic scale —
	// the two never occur on the same instruction.
	gbase int64
}

// dinstrSize is the dispatch stride of the unchecked pc walk in stepFast.
const dinstrSize = unsafe.Sizeof(dinstr{})

// daux holds the cold operands of calls, spawns and switches, and the IR
// position of loads and stores.
type daux struct {
	// site is what the race detector takes per access, by pointer (streams
	// are immutable once published); the bounds-check error reads its symbol.
	// First field: &aux[i].site is &aux[i], which stepFast computes anyway.
	site     raceSite
	callee   *dcode // decoded user callee (dCall)
	calleeFn *ir.Func
	name     string // callee / builtin name; block name for dBadTerm (errors)
	est      estimate
	bkind    builtinKind
	retDst   int32   // caller-frame destination register for dCall results
	argRegs  []int32 // argument registers (immediates are const-pool slots)
	cases    []int64
	tgts     []int32
	irop     ir.Op // original opcode for dBadOp errors
}

// estimate is estimates.Estimate without its Name, which would repeat
// daux.name in every daux; eval mirrors Estimate.Eval, allocation-free.
type estimate struct {
	base, scaleV int64
	argIndex     int
}

func (e estimate) eval(args []int64) int64 {
	c := e.base
	if e.scaleV != 0 && e.argIndex >= 0 && e.argIndex < len(args) {
		c += e.scaleV * args[e.argIndex]
	}
	if c < 0 {
		return 0
	}
	return c
}

// builtinKind is the decoded identity of builtinValue's name switch.
type builtinKind uint8

const (
	bkDefault builtinKind = iota // memset, memcpy, ...: return last argument
	bkSqrt
	bkAbs
	bkMin
	bkMax
	bkFixed // sin/cos/tan/exp/log/pow/floor/ceil stand-in
	bkRand
)

func decodeBuiltinKind(name string) builtinKind {
	switch name {
	case "sqrt":
		return bkSqrt
	case "abs", "fabs":
		return bkAbs
	case "min":
		return bkMin
	case "max":
		return bkMax
	case "sin", "cos", "tan", "exp", "log", "pow", "floor", "ceil":
		return bkFixed
	case "rand_r":
		return bkRand
	}
	return bkDefault
}

// builtinEval computes the decoded builtin's value, bit-for-bit equal to
// builtinValue (including the zero for missing arguments).
func builtinEval(kind builtinKind, args []int64) int64 {
	arg := func(i int) int64 {
		if i >= 0 && i < len(args) {
			return args[i]
		}
		return 0
	}
	switch kind {
	case bkSqrt:
		return isqrt(arg(0))
	case bkAbs:
		if v := arg(0); v < 0 {
			return -v
		}
		return arg(0)
	case bkMin:
		if arg(0) < arg(1) {
			return arg(0)
		}
		return arg(1)
	case bkMax:
		if arg(0) > arg(1) {
			return arg(0)
		}
		return arg(1)
	case bkFixed:
		return (arg(0)*31 + arg(1)*17) % 1024
	case bkRand:
		v := arg(0)
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		if v < 0 {
			v = -v
		}
		return v
	}
	return arg(len(args) - 1)
}

// dcode is the decoded form of one function.
type dcode struct {
	fn     *ir.Func
	instrs []dinstr
	aux    []daux
	// numRegs is the register-file size: fn.NumRegs real registers, one
	// scratch register (ir.NoReg destinations), then the constant pool.
	numRegs int
	// tmpl seeds each new frame's register file: zeros for the real and
	// scratch registers, then the pooled immediate values.
	tmpl []int64
}

// binOpTable maps binary/unary/compare IR opcodes to decoded ones.
var dopFor = map[ir.Op]dop{
	ir.OpMov: dMov, ir.OpAdd: dAdd, ir.OpSub: dSub, ir.OpMul: dMul,
	ir.OpDiv: dDiv, ir.OpMod: dMod, ir.OpAnd: dAnd, ir.OpOr: dOr,
	ir.OpXor: dXor, ir.OpShl: dShl, ir.OpShr: dShr, ir.OpNeg: dNeg,
	ir.OpNot: dNot, ir.OpEQ: dEQ, ir.OpNE: dNE, ir.OpLT: dLT,
	ir.OpLE: dLE, ir.OpGT: dGT, ir.OpGE: dGE,
}

// decode returns the decoded program for fn, building and caching it on
// first use: in the per-machine map always, and through the shared
// Config.DCache when one is wired (the streams themselves are
// machine-independent; the key pins everything decode bakes in).
func (m *Machine) decode(fn *ir.Func) *dcode {
	if dc, ok := m.dcache[fn]; ok {
		return dc
	}
	shared := m.cfg.DCache
	if shared == nil {
		return m.decodeFn(fn)
	}
	key := dckey{fn: fn, cm: m.cm, est: m.est, kendo: m.cfg.Mode == ModeKendo}
	if dc := shared.get(key); dc != nil {
		m.dcache[fn] = dc
		return dc
	}
	m.decoding++
	dc := m.decodeFn(fn)
	if m.decoding--; m.decoding == 0 {
		// Under recursion a finished stream can call one that is still being
		// filled: nothing is shared before the outermost decode has returned.
		shared.publish(key, m.dcache)
	}
	return dc
}

// decodeFn builds the decoded stream for fn (and, recursively, its callees).
func (m *Machine) decodeFn(fn *ir.Func) *dcode {
	dc := &dcode{fn: fn}
	// Register before decoding the body so recursive calls resolve to this
	// (still-filling) dcode; nothing executes until decode returns.
	m.dcache[fn] = dc

	scratch := int32(fn.NumRegs)
	// The constant pool lives above the scratch register; each distinct
	// immediate gets one slot, seeded from tmpl on frame entry.
	consts := map[int64]int32{}
	constReg := func(v int64) int32 {
		if r, ok := consts[v]; ok {
			return r
		}
		r := scratch + 1 + int32(len(consts))
		consts[v] = r
		return r
	}
	reg := func(r ir.Reg) int32 {
		if r == ir.NoReg {
			return scratch
		}
		return int32(r)
	}
	operand := func(o ir.Operand) int32 {
		if o.IsImm {
			return constReg(o.Imm)
		}
		return int32(o.Reg)
	}

	// First pass: flat start offset of each block (instructions + 1
	// terminator per block).
	starts := make([]int32, len(fn.Blocks))
	total := 0
	for i, b := range fn.Blocks {
		starts[i] = int32(total)
		total += len(b.Instrs) + 1
	}

	addAux := func(instr *dinstr, a daux) {
		instr.aux = int32(len(dc.aux))
		dc.aux = append(dc.aux, a)
	}
	decodeArgs := func(args []ir.Operand) []int32 {
		regs := make([]int32, len(args))
		for i, a := range args {
			regs[i] = operand(a)
		}
		return regs
	}

	instrs := make([]dinstr, 0, total)
	for _, b := range fn.Blocks {
		for pc := range b.Instrs {
			ins := &b.Instrs[pc]
			d := dinstr{
				aux:  -1,
				dst:  reg(ins.Dst),
				cost: int32(m.cm.PhysicalInstrCost(ins)),
			}
			if m.cfg.Mode == ModeKendo {
				// Kendo accrual only: the dispatch loop reads kcost only
				// under Kendo, and dAddRun takes a zero kcost for "no chunk".
				d.kcost = int32(m.cm.InstrCost(ins))
			}
			switch {
			case ins.Op == ir.OpConst:
				// The reference path reads A.Imm directly, regardless of the
				// operand's register flag; mirror that exactly.
				d.op, d.aImm = dConst, ins.A.Imm
			case dopFor[ins.Op] != 0:
				d.op = dopFor[ins.Op]
				d.a = operand(ins.A)
				d.b = operand(ins.B)
			case ins.Op == ir.OpLoad || ins.Op == ir.OpStore:
				d.op = dLoad
				d.a = operand(ins.A)
				if ins.Op == ir.OpStore {
					d.op = dStore
					d.b = operand(ins.B)
				}
				if slot, ok := m.gidx[ins.Sym]; ok {
					d.gslot = int32(slot)
					d.glen = int32(len(m.gtab[slot]))
					d.gbase = m.baseOff[ins.Sym]
				}
				// Unknown symbols keep glen 0: every access faults with the
				// reference path's "out of bounds (size 0)" message.
				addAux(&d, daux{site: raceSite{sym: ins.Sym, fn: fn, block: b, pc: int32(pc)}})
			case ins.Op == ir.OpCall:
				argRegs := decodeArgs(ins.Args)
				if callee := m.mod.Func(ins.Callee); callee != nil {
					d.op = dCall
					addAux(&d, daux{
						callee: m.decode(callee), calleeFn: callee,
						name: ins.Callee, retDst: reg(ins.Dst),
						argRegs: argRegs,
					})
				} else if est, ok := m.est.Lookup(ins.Callee); ok {
					d.op = dCallB
					addAux(&d, daux{
						name: ins.Callee, bkind: decodeBuiltinKind(ins.Callee),
						est:     estimate{base: est.Base, scaleV: est.Scale, argIndex: est.ArgIndex},
						argRegs: argRegs,
					})
				} else {
					// The reference interpreter faults only if the call
					// executes; preserve that laziness.
					d.op = dBadCall
					addAux(&d, daux{name: ins.Callee})
				}
			case ins.Op == ir.OpSpawn:
				argRegs := decodeArgs(ins.Args)
				if callee := m.mod.Func(ins.Callee); callee != nil {
					d.op = dSpawn
					addAux(&d, daux{
						calleeFn: callee, name: ins.Callee,
						argRegs: argRegs,
					})
				} else {
					d.op = dBadSpawn
					addAux(&d, daux{name: ins.Callee})
				}
			case ins.Op == ir.OpJoin:
				d.op = dJoin
				d.a = operand(ins.A)
			case ins.Op == ir.OpLock:
				d.op = dLock
				d.a = operand(ins.A)
			case ins.Op == ir.OpUnlock:
				d.op = dUnlock
				d.a = operand(ins.A)
			case ins.Op == ir.OpBarrier:
				d.op = dBarrier
				d.a = operand(ins.A)
			case ins.Op == ir.OpTid:
				d.op = dTid
			case ins.Op == ir.OpNThreads:
				d.op = dNThreads
			case ins.Op == ir.OpPrint:
				d.op = dPrint
				d.a = operand(ins.A)
			case ins.Op == ir.OpClockAdd:
				if m.cfg.Mode == ModeDetLock {
					d.op = dClockAdd
					d.aImm = ins.A.Imm
					d.gbase = ins.Scale // scale rides in the gbase slot
					if ins.Scale != 0 {
						d.b = operand(ins.B)
					}
				} else {
					// Kendo runs ignore instrumentation but still pay its
					// physical cost, like the reference path.
					d.op = dClockNop
				}
			default:
				d.op = dBadOp
				addAux(&d, daux{irop: ins.Op})
			}
			instrs = append(instrs, d)
		}

		term := dinstr{aux: -1, cost: int32(m.cm.TermCost(&b.Term))}
		switch b.Term.Kind {
		case ir.TermJmp:
			term.op = dJmp
			term.tgt = starts[b.Term.Succs[0].Index]
		case ir.TermBr:
			term.op = dBr
			term.a = operand(b.Term.Cond)
			term.tgt = starts[b.Term.Succs[0].Index]
			term.tgt2 = starts[b.Term.Succs[1].Index]
		case ir.TermSwitch:
			term.op = dSwitch
			term.a = operand(b.Term.Cond)
			tgts := make([]int32, len(b.Term.Succs))
			for i, s := range b.Term.Succs {
				tgts[i] = starts[s.Index]
			}
			addAux(&term, daux{
				cases: append([]int64(nil), b.Term.Cases...),
				tgts:  tgts,
			})
		case ir.TermRet:
			term.op = dRet
			term.a = operand(b.Term.Ret)
		default:
			term.op = dBadTerm
			addAux(&term, daux{name: b.Name})
		}
		instrs = append(instrs, term)
	}
	dc.instrs = instrs
	dc.numRegs = fn.NumRegs + 1 + len(consts)
	dc.tmpl = make([]int64, dc.numRegs)
	for v, r := range consts {
		dc.tmpl[r] = v
	}
	foldAddRuns(instrs, dc.tmpl, scratch)
	dc.validate(len(m.gtab))
	return dc
}

// foldAddRuns walks the stream backwards, giving each same-register
// immediate add (rN = add rN, imm: a constant-pool operand above the scratch
// register) the count and immediate sum from its slot to the end of its
// run: the adds that follow on the same register with the same cost and
// Kendo weight. Every slot but a run's last becomes a dAddRun. Runs cannot
// cross blocks (every block ends in a terminator, which is never an add),
// and negative costs never fold: the loop's bounds assume counters that only
// grow.
func foldAddRuns(instrs []dinstr, tmpl []int64, scratch int32) {
	selfAdd := func(d *dinstr) bool {
		return (d.op == dAdd || d.op == dAddRun) && d.dst == d.a && d.b > scratch && d.cost >= 0 && d.kcost >= 0
	}
	for i := len(instrs) - 2; i >= 0; i-- { // the last slot is a terminator
		d, next := &instrs[i], &instrs[i+1]
		if !selfAdd(d) {
			continue
		}
		d.tgt, d.aImm = 1, tmpl[d.b]
		if selfAdd(next) && next.dst == d.dst && next.cost == d.cost && next.kcost == d.kcost {
			d.op, d.tgt, d.aImm = dAddRun, next.tgt+1, d.aImm+next.aImm
		}
	}
}

// validate checks the invariants the unchecked register file (rload/rstore)
// and pc walk rely on: every register index below numRegs, every branch
// target inside the stream, every global slot inside the machine's table,
// and every block ending in a terminator (the decoder appends one per
// block, so pc cannot run off the end). Violations are decoder bugs, never
// program errors — the input module already passed ir.Verify — so they
// panic.
func (dc *dcode) validate(nglobals int) {
	n := int32(len(dc.instrs))
	for i := range dc.instrs {
		d := &dc.instrs[i]
		if d.dst < 0 || int(d.dst) >= dc.numRegs ||
			d.a < 0 || int(d.a) >= dc.numRegs ||
			d.b < 0 || int(d.b) >= dc.numRegs {
			panic(fmt.Sprintf("interp: decode %s: instr %d register out of range", dc.fn.Name, i))
		}
		switch d.op {
		case dAddRun:
			// The loop reads the stop slot of a run unchecked.
			if d.tgt < 2 || d.tgt > n-int32(i) {
				panic(fmt.Sprintf("interp: decode %s: instr %d add run out of range", dc.fn.Name, i))
			}
		case dLoad, dStore:
			if d.gslot < 0 || (int(d.gslot) >= nglobals && d.glen > 0) {
				panic(fmt.Sprintf("interp: decode %s: instr %d global slot out of range", dc.fn.Name, i))
			}
		case dJmp:
			if d.tgt < 0 || d.tgt >= n {
				panic(fmt.Sprintf("interp: decode %s: jmp target out of range", dc.fn.Name))
			}
		case dBr:
			if d.tgt < 0 || d.tgt >= n || d.tgt2 < 0 || d.tgt2 >= n {
				panic(fmt.Sprintf("interp: decode %s: br target out of range", dc.fn.Name))
			}
		case dSwitch:
			for _, tg := range dc.aux[d.aux].tgts {
				if tg < 0 || tg >= n {
					panic(fmt.Sprintf("interp: decode %s: switch target out of range", dc.fn.Name))
				}
			}
		case dCall, dCallB, dSpawn:
			for _, r := range dc.aux[d.aux].argRegs {
				if r < 0 || int(r) >= dc.numRegs {
					panic(fmt.Sprintf("interp: decode %s: instr %d arg register out of range", dc.fn.Name, i))
				}
			}
		}
	}
}

// pushFast pushes a decoded frame, reusing the register buffer left in the
// stack slot by a previous pop when it is large enough, so steady-state
// calls allocate nothing. The register file is seeded from the function's
// template (zeros, then the constant pool).
func (t *Thread) pushFast(dc *dcode, retDst int32) []int64 {
	n := len(t.stack)
	var regs []int64
	if cap(t.stack) > n {
		if old := t.stack[:n+1][n].regs; cap(old) >= dc.numRegs {
			regs = old[:dc.numRegs]
		}
	}
	if regs == nil {
		regs = make([]int64, dc.numRegs)
	}
	copy(regs, dc.tmpl)
	t.stack = append(t.stack, frame{fn: dc.fn, regs: regs, code: dc, dretDst: retDst})
	return regs
}

// flush writes the loop's program counter and retired count back: every
// exit from stepFast goes through it.
func (t *Thread) flush(fr *frame, pc int32, retired int64) {
	fr.dpc = pc
	t.RetiredInstrs += retired
	t.mach.InstrsExecuted += retired
}

// kendoOverflow ends a step at a Kendo counter overflow: the interrupt
// handler publishes the accumulated count as the clock delta.
func (t *Thread) kendoOverflow(st *sim.Step, cycles int64) {
	m := t.mach
	m.Interrupts++
	m.ClockUpdates++
	*st = sim.Step{Kind: sim.StepAdvance, Cycles: cycles + kendoInterruptCost, ClockDelta: t.kendoAccum}
	t.kendoAccum = 0
}

// stepFast is the decoded dispatch loop: the optimized equivalent of step().
// Yield points, cycle accounting, stats, error strings, and race-detector
// access order are byte-identical to the reference loop.
//
// Register discipline: across the loop only what every instruction touches
// stays in locals — t, fr, cp, rp, pc, cycles, retired and maxCycles. Every
// other piece of state (the Kendo accumulator, the machine counters, the
// global table, the frame's aux side table) is read or written in place
// through t, t.mach or fr on the paths that use it. A local that only some
// instructions need is still live across the whole switch, so the compiler
// stores it to the stack at the dispatch head and reloads it in the shared
// tail on every instruction.
func (t *Thread) stepFast(st *sim.Step) error {
	if t.done {
		return errors.New("step on finished thread")
	}
	var (
		cycles  int64
		retired int64 // buffers Thread.RetiredInstrs and Machine.InstrsExecuted
	)
	maxCycles := t.maxCycles
	fr := t.top()
	// Unchecked pc walk and register file: every index was checked once at
	// decode time (see validate), not once per executed instruction.
	cp := unsafe.Pointer(unsafe.SliceData(fr.code.instrs))
	rp := unsafe.Pointer(unsafe.SliceData(fr.regs))
	pc := fr.dpc

	for {
		d := (*dinstr)(unsafe.Add(cp, uintptr(pc)*dinstrSize))
		pc++
		retired++
		cycles += int64(d.cost)
		switch d.op {
		case dConst:
			rstore(rp, d.dst, d.aImm)
		case dMov:
			rstore(rp, d.dst, rload(rp, d.a))
		case dAdd:
			rstore(rp, d.dst, rload(rp, d.a)+rload(rp, d.b))
		case dAddRun:
			// This add is retired and charged above. The adds the reference
			// runs past it before its next yield are e: up to the run's end,
			// and short of the step bound and the Kendo overflow, both checked
			// in unsigned arithmetic that cannot overflow. Their immediates
			// land in one store (this slot's suffix sum minus the stop slot's,
			// plus the stop slot's own), and the shared tail checks the stop
			// slot's add, where a tie goes to Kendo as in the reference.
			// The cost is read from the next slot (the run's, so the same):
			// reusing the head's load of d.cost would keep it live, and
			// spilled, across every instruction's dispatch.
			c := int64((*dinstr)(unsafe.Add(cp, uintptr(pc)*dinstrSize)).cost)
			e := uint64(d.tgt) - 1
			if cycles >= maxCycles {
				e = 0
			} else if c > 0 {
				e = min(e, (uint64(maxCycles)-uint64(cycles)-1)/uint64(c)+1)
			}
			if d.kcost > 0 { // Kendo streams only
				if t.kendoAccum >= t.chunk {
					e = 0
				} else {
					e = min(e, (uint64(t.chunk)-uint64(t.kendoAccum)-1)/uint64(d.kcost))
				}
				t.kendoAccum += int64(e) * int64(d.kcost)
			}
			pc += int32(e)
			stop := (*dinstr)(unsafe.Add(cp, uintptr(pc-1)*dinstrSize))
			rstore(rp, d.dst, rload(rp, d.dst)+d.aImm-stop.aImm+rload(rp, stop.b))
			retired += int64(e)
			cycles += int64(e) * c
		case dSub:
			rstore(rp, d.dst, rload(rp, d.a)-rload(rp, d.b))
		case dMul:
			rstore(rp, d.dst, rload(rp, d.a)*rload(rp, d.b))
		case dDiv:
			if b := rload(rp, d.b); b == 0 {
				rstore(rp, d.dst, 0)
			} else {
				rstore(rp, d.dst, rload(rp, d.a)/b)
			}
		case dMod:
			if b := rload(rp, d.b); b == 0 {
				rstore(rp, d.dst, 0)
			} else {
				rstore(rp, d.dst, rload(rp, d.a)%b)
			}
		case dAnd:
			rstore(rp, d.dst, rload(rp, d.a)&rload(rp, d.b))
		case dOr:
			rstore(rp, d.dst, rload(rp, d.a)|rload(rp, d.b))
		case dXor:
			rstore(rp, d.dst, rload(rp, d.a)^rload(rp, d.b))
		case dShl:
			rstore(rp, d.dst, rload(rp, d.a)<<uint64(rload(rp, d.b)&63))
		case dShr:
			rstore(rp, d.dst, rload(rp, d.a)>>uint64(rload(rp, d.b)&63))
		case dNeg:
			rstore(rp, d.dst, -rload(rp, d.a))
		case dNot:
			rstore(rp, d.dst, ^rload(rp, d.a))
		case dEQ:
			rstore(rp, d.dst, b2i(rload(rp, d.a) == rload(rp, d.b)))
		case dNE:
			rstore(rp, d.dst, b2i(rload(rp, d.a) != rload(rp, d.b)))
		case dLT:
			rstore(rp, d.dst, b2i(rload(rp, d.a) < rload(rp, d.b)))
		case dLE:
			rstore(rp, d.dst, b2i(rload(rp, d.a) <= rload(rp, d.b)))
		case dGT:
			rstore(rp, d.dst, b2i(rload(rp, d.a) > rload(rp, d.b)))
		case dGE:
			rstore(rp, d.dst, b2i(rload(rp, d.a) >= rload(rp, d.b)))
		case dLoad, dStore:
			idx := rload(rp, d.a)
			if idx < 0 || idx >= int64(d.glen) {
				t.flush(fr, pc, retired)
				op := "load"
				if d.op == dStore {
					op = "store"
				}
				return t.errf("%s %s[%d] out of bounds (size %d)",
					op, fr.code.aux[d.aux].site.sym, idx, d.glen)
			}
			// The penalty is added after the branch: a constant added
			// inside it folds with the head's cost add into one LEA, which
			// keeps both of that add's operands live across the switch
			// (two more stack stores on every instruction).
			var miss int64
			if h := uint64(d.gbase+idx) * 0x9E3779B97F4A7C15; int64((h>>32)&0xFF) < missRate {
				t.mach.CacheMisses++
				miss = missPenalty
			}
			cycles += miss
			if t.mach.race != nil {
				if err := t.raceCheck(&fr.code.aux[d.aux].site, idx, d.gbase+idx, d.op == dStore); err != nil {
					t.flush(fr, pc, retired)
					return err
				}
			}
			cell := (*int64)(unsafe.Add(t.mach.gptrs[d.gslot], uintptr(idx)*8))
			if d.op == dLoad {
				rstore(rp, d.dst, *cell)
			} else {
				*cell = rload(rp, d.b)
				t.mach.StoresRetired++
			}
		case dCall:
			au := &fr.code.aux[d.aux]
			if len(t.stack) >= 10_000 {
				t.flush(fr, pc, retired)
				return t.errf("call stack overflow calling %s", au.name)
			}
			fr.dpc = pc // return address
			nregs := t.pushFast(au.callee, au.retDst)
			for i, r := range au.argRegs {
				nregs[i] = rload(rp, r) // caller frame
			}
			fr = t.top()
			cp = unsafe.Pointer(unsafe.SliceData(au.callee.instrs))
			rp = unsafe.Pointer(unsafe.SliceData(nregs))
			pc = 0
		case dCallB:
			au := &fr.code.aux[d.aux]
			args := t.argbuf[:0]
			for _, r := range au.argRegs {
				args = append(args, rload(rp, r))
			}
			t.argbuf = args
			cost := au.est.eval(args)
			cycles += cost
			if t.kendo {
				t.kendoAccum += cost
			}
			rstore(rp, d.dst, builtinEval(au.bkind, args))
		case dBadCall:
			t.flush(fr, pc, retired)
			return t.errf("call to unknown builtin %q", fr.code.aux[d.aux].name)
		case dSpawn:
			au := &fr.code.aux[d.aux]
			if err := t.admitSpawn(au.name); err != nil {
				t.flush(fr, pc, retired)
				return err
			}
			args := make([]int64, len(au.argRegs))
			for i, r := range au.argRegs {
				args[i] = rload(rp, r)
			}
			m, callee := t.mach, au.calleeFn
			t.flush(fr, pc, retired)
			*st = sim.Step{
				Kind:       sim.StepSpawn,
				Cycles:     cycles,
				ClockDelta: t.syncFlush(),
				SpawnDst:   &fr.regs[d.dst],
				NewProg: func(id int) sim.Program {
					nt := m.thread(id)
					nt.push(callee, args, ir.NoReg)
					m.spawned = append(m.spawned, nt)
					return nt
				},
			}
			return nil
		case dBadSpawn:
			t.flush(fr, pc, retired)
			return t.errf("spawn of unknown function %q", fr.code.aux[d.aux].name)
		case dJoin, dLock, dUnlock, dBarrier:
			var kind sim.StepKind
			switch d.op {
			case dJoin:
				kind = sim.StepJoin
			case dLock:
				kind = sim.StepLock
			case dUnlock:
				kind = sim.StepUnlock
			default:
				kind = sim.StepBarrier
			}
			t.flush(fr, pc, retired)
			*st = sim.Step{Kind: kind, Cycles: cycles, Obj: int(rload(rp, d.a)), ClockDelta: t.syncFlush()}
			return nil
		case dTid:
			rstore(rp, d.dst, int64(t.tid))
		case dNThreads:
			rstore(rp, d.dst, int64(t.mach.cfg.Threads))
		case dPrint:
			t.Output = append(t.Output, rload(rp, d.a))
		case dClockAdd:
			delta := d.aImm
			if d.gbase != 0 { // gbase carries the clockadd scale
				delta += d.gbase * rload(rp, d.b)
			}
			t.mach.ClockUpdates++
			t.flush(fr, pc, retired)
			*st = sim.Step{Kind: sim.StepAdvance, Cycles: cycles, ClockDelta: max(delta, 0)}
			return nil
		case dClockNop:
			// clockadd under Kendo: cost charged above, no clock effect.
		case dJmp:
			pc = d.tgt
		case dBr:
			if rload(rp, d.a) != 0 {
				pc = d.tgt
			} else {
				pc = d.tgt2
			}
		case dSwitch:
			au := &fr.code.aux[d.aux]
			v := rload(rp, d.a)
			pc = au.tgts[len(au.cases)]
			for i, c := range au.cases {
				if v == c {
					pc = au.tgts[i]
					break
				}
			}
		case dRet:
			ret := rload(rp, d.a)
			t.stack = t.stack[:len(t.stack)-1]
			if len(t.stack) == 0 {
				t.done = true
				t.flush(fr, pc, retired)
				*st = sim.Step{Kind: sim.StepDone, Cycles: cycles, ClockDelta: t.syncFlush()}
				return nil
			}
			retDst := fr.dretDst
			fr = t.top()
			fr.regs[retDst] = ret
			cp = unsafe.Pointer(unsafe.SliceData(fr.code.instrs))
			rp = unsafe.Pointer(unsafe.SliceData(fr.regs))
			pc = fr.dpc
		case dBadTerm:
			t.flush(fr, pc, retired)
			return t.errf("missing terminator in %s", fr.code.aux[d.aux].name)
		default:
			t.flush(fr, pc, retired)
			return t.errf("unknown opcode %v", fr.code.aux[d.aux].irop)
		}
		// Post-instruction bookkeeping, in the reference loop's order: Kendo
		// accrual and overflow first (kcost is zero for terminators, and the
		// counter is always below the chunk size when one executes, so the
		// shared check cannot misfire there), then the step-cycle bound.
		if t.kendo {
			if t.kendoAccum += int64(d.kcost); t.kendoAccum >= t.chunk {
				t.flush(fr, pc, retired)
				t.kendoOverflow(st, cycles)
				return nil
			}
		}
		if cycles >= maxCycles {
			t.flush(fr, pc, retired)
			*st = sim.Step{Kind: sim.StepAdvance, Cycles: cycles}
			return nil
		}
	}
}
