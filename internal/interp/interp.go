// Package interp executes IR modules (package ir) as steppable simulated
// threads for the discrete-event engine (package sim).
//
// Two logical-clock sources are supported, mirroring the paper's comparison:
//
//   - DetLock mode: the clock advances at the clockadd instructions that the
//     pass inserted; the thread yields at every clockadd so publication
//     times are exact (this is what makes start-of-block placement visibly
//     better than end-of-block in Figure 15).
//   - Kendo mode: the clock comes from a simulated deterministic hardware
//     performance counter whose published value advances only when the
//     counter overflows — every ChunkSize units — at the cost of an
//     interrupt. This reproduces Kendo's staleness/interrupt trade-off that
//     the paper's §V-C discusses. Kendo counts retired stores; the synthetic
//     workloads here are load/ALU-heavy, so the counter instead counts
//     retired instructions (weighted by the cost model) — the same
//     deterministic-progress signal with a density high enough to be useful,
//     preserving the chunk-size trade-off the comparison is about.
package interp

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/detrand"
	"repro/internal/diag"
	"repro/internal/estimates"
	"repro/internal/ir"
	"repro/internal/sim"
)

// ClockMode selects the logical clock source.
type ClockMode uint8

// Clock modes.
const (
	// ModeDetLock: clockadd instructions drive the published clock.
	ModeDetLock ClockMode = iota
	// ModeKendo: retired stores drive the clock, published per chunk.
	ModeKendo
)

// Config parameterizes machine construction.
type Config struct {
	Module    *ir.Module
	Costs     *ir.CostModel
	Estimates *estimates.Table
	Threads   int
	// Entry is the function every thread runs (SPMD); it must take no
	// parameters and use the tid/nthreads instructions to self-identify.
	Entry string

	Mode ClockMode
	// KendoChunkSize is the performance-counter overflow period in
	// ModeKendo, in weighted retired-instruction units; 0 means 1,000.
	// Each overflow interrupt costs kendoInterruptCost cycles.
	KendoChunkSize int64

	// MaxStepCycles bounds one engine step; long straight-line runs yield
	// periodically so the engine can interleave. 0 means default.
	MaxStepCycles int64

	// Race, when non-nil, enables deterministic data-race detection: every
	// load/store is checked against a vector-clock shadow memory whose
	// clocks the engine advances at sync events (wire Machine.Observer into
	// sim.Config.Observer). When nil — the default — the interpreter hot
	// loop pays a single pointer test and allocates nothing.
	Race *RaceConfig

	// JitterSeed perturbs *physical* timing only: each engine step gains a
	// deterministic pseudo-random 0..jitterAmp extra cycles derived from
	// (seed, thread id). Logical clocks are untouched, so under the
	// deterministic policy the synchronization schedule — and any race or
	// failure report — must be identical across seeds; the robustness
	// property tests assert exactly that (the simulator-side analog of the
	// body jitter internal/det's tests apply). JitterSeed 0 disables.
	JitterSeed int64

	// Reference selects the original tree-walking interpreter instead of the
	// decoded-dispatch loop (decode.go). Both produce byte-identical steps,
	// cycle counts, stats, and errors; the reference path exists as the
	// equivalence oracle for the property tests and as a fallback while
	// triaging suspected decode bugs.
	Reference bool

	// DCache, when non-nil, shares decoded instruction streams across
	// machines (decoded streams are machine-independent; see dcache.go).
	// The table sweeps build hundreds of machines over the same handful of
	// modules, so sharing removes all but the first decode of each function.
	DCache *DCache

	// SkipVerify certifies that Module already passed Verify with this
	// Estimates table. The harness verifies each module once and then runs
	// many machines over it; re-verifying per machine is measurable on the
	// sweep. Never set it for a module that has been mutated since its
	// Verify.
	SkipVerify bool
}

// Machine holds the state shared by all simulated threads of one run:
// global memory plus configuration.
type Machine struct {
	cfg     Config
	mod     *ir.Module
	cm      *ir.CostModel
	est     *estimates.Table
	globals map[string][]int64
	baseOff map[string]int64 // flat address base per global, for the cache model

	// Slot-indexed views of the globals, in Module.Globals order: decoded
	// loads/stores carry a slot index (machine-independent) instead of a
	// buffer, and the dispatch loop resolves it through these tables.
	gidx  map[string]int   // global name -> slot
	gtab  [][]int64        // slot -> buffer
	gptrs []unsafe.Pointer // slot -> buffer base (unchecked access path)

	// spawned collects dynamically created threads so callers can read
	// their outputs after the run; threads counts all it starts.
	spawned []*Thread
	threads int

	// race is the optional data-race detector; nil when disabled.
	race *RaceDetector

	// dcache memoizes decoded instruction streams per function (decode.go):
	// a lock-free per-machine view in front of the optional shared
	// Config.DCache.
	dcache   map[*ir.Func]*dcode
	decoding int // decode calls in progress; the outermost one publishes

	// Stats.
	InstrsExecuted int64
	ClockUpdates   int64
	StoresRetired  int64
	Interrupts     int64
	CacheMisses    int64
}

// The machine model's fixed costs, in cycles the logical clock cannot see.
//
// Cache model: the logical clock charges every load/store its nominal cost,
// but real machines miss in the cache. That clock-vs-time drift is what
// forces threads to wait for each other's clocks under deterministic
// execution, so modeling it is essential for the paper's overhead numbers.
// An access misses when its address hash falls below missRate out of 256
// (deterministic, data-dependent), costing missPenalty extra cycles.
const (
	kendoInterruptCost = 40 // each Kendo counter-overflow interrupt
	missRate           = 32 // of 256 accesses, by address hash
	missPenalty        = 10 // each cache miss
	jitterAmp          = 16 // a seeded step's extra cycles are 0..jitterAmp
)

// missCycles returns the extra (clock-invisible) cycles for an access to
// global sym at index idx.
func (m *Machine) missCycles(sym string, idx int64) int64 {
	addr := m.baseOff[sym] + idx
	h := uint64(addr) * 0x9E3779B97F4A7C15
	if int64((h>>32)&0xFF) < missRate {
		m.CacheMisses++
		return missPenalty
	}
	return 0
}

// NewMachine builds a machine and its per-thread programs.
func NewMachine(cfg Config) (*Machine, []*Thread, error) {
	if cfg.Module == nil {
		return nil, nil, errors.New("interp: nil module")
	}
	if cfg.Costs == nil {
		cfg.Costs = ir.DefaultCostModel()
	}
	if cfg.Estimates == nil {
		cfg.Estimates = estimates.DefaultTable()
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	if cfg.MaxStepCycles == 0 {
		cfg.MaxStepCycles = 50_000
	}
	if cfg.KendoChunkSize < 0 {
		return nil, nil, fmt.Errorf("interp: negative Kendo chunk size %d", cfg.KendoChunkSize)
	}
	if cfg.KendoChunkSize == 0 {
		cfg.KendoChunkSize = 1000
	}
	entry := cfg.Module.Func(cfg.Entry)
	if entry == nil {
		return nil, nil, fmt.Errorf("interp: entry function %q not found", cfg.Entry)
	}
	if entry.NumParams != 0 {
		return nil, nil, fmt.Errorf("interp: entry function %q must take no parameters", cfg.Entry)
	}
	if !cfg.SkipVerify {
		if err := cfg.Module.Verify(cfg.Estimates.Has); err != nil {
			return nil, nil, fmt.Errorf("interp: %w", err)
		}
	}
	m := &Machine{
		cfg:     cfg,
		mod:     cfg.Module,
		cm:      cfg.Costs,
		est:     cfg.Estimates,
		globals: map[string][]int64{},
		baseOff: map[string]int64{},
		gidx:    map[string]int{},
		dcache:  map[*ir.Func]*dcode{},
		threads: cfg.Threads,
	}
	var off int64
	for i, g := range cfg.Module.Globals {
		buf := make([]int64, g.Size)
		copy(buf, g.Init)
		m.globals[g.Name] = buf
		m.baseOff[g.Name] = off
		m.gidx[g.Name] = i
		m.gtab = append(m.gtab, buf)
		m.gptrs = append(m.gptrs, unsafe.Pointer(unsafe.SliceData(buf)))
		off += g.Size
	}
	if cfg.Race != nil {
		m.race = newRaceDetector(*cfg.Race, cfg.Module, cfg.Threads)
	}
	var threads []*Thread
	for i := 0; i < cfg.Threads; i++ {
		threads = append(threads, newThread(m, i, entry))
	}
	return m, threads, nil
}

// Run builds a machine for cfg and runs its threads on the simulator under
// sc, whose lock and barrier counts and observer it takes from the module and
// the machine. A nil machine means it could not be built; otherwise the error
// is the run's.
func Run(cfg Config, sc sim.Config) (*Machine, []*Thread, *sim.Stats, error) {
	m, threads, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sc.NumLocks, sc.NumBarriers, sc.Observer = cfg.Module.NumLocks, cfg.Module.NumBars, m.Observer()
	stats, err := sim.New(sc, Programs(threads)).Run()
	return m, threads, stats, err
}

// Global returns the current contents of a global (shared across threads).
func (m *Machine) Global(name string) []int64 { return m.globals[name] }

// Programs converts threads to the sim.Program interface.
func Programs(threads []*Thread) []sim.Program {
	out := make([]sim.Program, len(threads))
	for i, t := range threads {
		out[i] = t
	}
	return out
}

// frame is one call-stack entry. The reference interpreter walks
// block/pc/retDst; the decoded path walks code/dpc/dretDst over the flat
// instruction stream. A frame belongs to exactly one of the two worlds,
// selected by Config.Reference at machine construction.
type frame struct {
	fn     *ir.Func
	regs   []int64
	block  *ir.Block
	pc     int
	retDst ir.Reg // destination register in the CALLER's frame

	code    *dcode // decoded stream (nil under Config.Reference)
	dpc     int32  // decoded program counter
	dretDst int32  // caller-frame result register (scratch for ir.NoReg)
}

// Thread is a steppable interpreter for one simulated thread.
type Thread struct {
	mach *Machine
	tid  int

	stack []frame
	done  bool

	// kendoAccum counts weighted retired instructions since the last Kendo
	// counter overflow.
	kendoAccum int64

	// jitter is the per-thread stream for physical-timing perturbation,
	// seeded from (Config.JitterSeed, tid) so it depends only on configuration.
	jitter detrand.Rand

	// plain short-circuits Step to the decoded dispatcher: set when the
	// machine runs optimized (non-reference) with jitter disabled.
	plain bool

	// Hot configuration mirrored from Machine.cfg at construction. The
	// decoded dispatch loop keeps only maxCycles in a local and reads the
	// rest in place, on the paths that use them (see stepFast): the Kendo
	// pair on every instruction of a Kendo run.
	kendo     bool
	maxCycles int64
	chunk     int64

	// argbuf is the reused builtin-call argument buffer of the decoded
	// path; steady-state builtin calls allocate nothing.
	argbuf []int64

	// Output is the deterministic print log.
	Output []int64

	// RetiredInstrs counts executed instructions (terminators included).
	RetiredInstrs int64
}

// syncFlush publishes the precise Kendo count at a synchronization
// operation: the thread reads its own counter exactly there (Kendo pauses
// the clock across the wait), while OTHER threads' clocks remain stale until
// their next overflow interrupt — the staleness that makes waiters wait and
// that chunk-size tuning trades against interrupt cost.
func (t *Thread) syncFlush() int64 {
	if !t.kendo {
		return 0
	}
	d := t.kendoAccum
	t.kendoAccum = 0
	return d
}

func newThread(m *Machine, tid int, entry *ir.Func) *Thread {
	t := m.thread(tid)
	t.push(entry, nil, ir.NoReg)
	return t
}

// thread builds a bare Thread with the hot configuration mirrored onto it
// (every construction path — initial threads and spawns — goes through
// here so the mirrors can never go stale).
func (m *Machine) thread(tid int) *Thread {
	t := &Thread{mach: m, tid: tid}
	t.jitter = detrand.FromState(uint64(m.cfg.JitterSeed)*0x9E3779B97F4A7C15 + uint64(tid)*2654435761 + 1)
	t.plain = !m.cfg.Reference && m.cfg.JitterSeed == 0
	t.kendo = m.cfg.Mode == ModeKendo
	t.maxCycles = m.cfg.MaxStepCycles
	t.chunk = m.cfg.KendoChunkSize
	return t
}

func (t *Thread) push(fn *ir.Func, args []int64, retDst ir.Reg) {
	if !t.mach.cfg.Reference {
		// retDst is only ever ir.NoReg here (root and spawned frames; the
		// decoded call path pushes via pushFast directly), and a root
		// frame's return target is never written, so 0 is safe.
		regs := t.pushFast(t.mach.decode(fn), 0)
		copy(regs, args)
		return
	}
	regs := make([]int64, fn.NumRegs)
	copy(regs, args)
	t.stack = append(t.stack, frame{fn: fn, regs: regs, block: fn.Entry(), retDst: retDst})
}

// maxThreads bounds the threads one machine starts, entry and spawned
// together. A thread that has run nothing costs about 500 bytes (80,000
// spawned ones took 44.9 MB in one job); 512 is twice the widest request the
// service admits, and no SPLASH model, corpus program or idiom spawns at all.
const maxThreads = 512

// admitSpawn counts t's spawn of fn against maxThreads, or refuses it with a
// typed misuse naming the site: the same spawn on every run.
func (t *Thread) admitSpawn(fn string) error {
	if t.mach.threads >= maxThreads {
		return &diag.MisuseError{Op: "spawn", ThreadID: -1, Kind: diag.ErrBadConfig,
			Detail: fmt.Sprintf("thread %d in %s spawning %s: a machine starts at most %d threads", t.tid, t.top().fn.Name, fn, maxThreads)}
	}
	t.mach.threads++
	return nil
}

// errInterp wraps interpreter runtime faults with thread context.
func (t *Thread) errf(format string, args ...any) error {
	return fmt.Errorf("thread %d in %s: %s", t.tid, t.top().fn.Name, fmt.Sprintf(format, args...))
}

func (t *Thread) top() *frame { return &t.stack[len(t.stack)-1] }

func (t *Thread) val(o ir.Operand) int64 {
	if o.IsImm {
		return o.Imm
	}
	return t.top().regs[o.Reg]
}

func (t *Thread) setReg(r ir.Reg, v int64) {
	if r != ir.NoReg {
		t.top().regs[r] = v
	}
}

// Step executes instructions until a yield point: a clock update, a sync
// operation, completion, or the per-step cycle bound. With jitter enabled
// the yielded span gains deterministic extra physical cycles — never a
// logical-clock change, so deterministic schedules are jitter-invariant.
func (t *Thread) Step() (sim.Step, error) {
	var st sim.Step
	err := t.StepInto(&st)
	return st, err
}

// StepInto is the out-parameter form of Step (sim.StepperInto): the engine
// calls it on the optimized path so the decoded dispatch loop writes the
// step straight into the engine's stack slot instead of copying the struct
// through two interface returns.
func (t *Thread) StepInto(st *sim.Step) error {
	if t.plain {
		// Decoded dispatch, no jitter: the common case.
		return t.stepFast(st)
	}
	var err error
	if t.mach.cfg.Reference {
		*st, err = t.step()
	} else {
		err = t.stepFast(st)
	}
	if err == nil && t.mach.cfg.JitterSeed != 0 {
		st.Cycles += int64(t.jitter.Next() % (jitterAmp + 1))
	}
	return err
}

func (t *Thread) step() (sim.Step, error) {
	if t.done {
		return sim.Step{}, errors.New("step on finished thread")
	}
	var cycles int64
	for {
		fr := t.top()
		if fr.pc >= len(fr.block.Instrs) {
			// Execute the terminator.
			st, yield, err := t.execTerm(fr, &cycles)
			if err != nil {
				return sim.Step{}, err
			}
			if yield {
				return st, nil
			}
			// The bound must also apply to terminator-only cycles, or an
			// empty-block loop would never leave this call.
			if cycles >= t.mach.cfg.MaxStepCycles {
				return sim.Step{Kind: sim.StepAdvance, Cycles: cycles}, nil
			}
			continue
		}
		ins := &fr.block.Instrs[fr.pc]
		fr.pc++
		t.RetiredInstrs++
		t.mach.InstrsExecuted++
		cycles += t.mach.cm.PhysicalInstrCost(ins)
		st, yield, err := t.execInstr(ins, &cycles)
		if err != nil {
			return sim.Step{}, err
		}
		if yield {
			return st, nil
		}
		if t.mach.cfg.Mode == ModeKendo {
			t.kendoAccum += t.mach.cm.InstrCost(ins)
			if t.kendoAccum >= t.mach.cfg.KendoChunkSize {
				// Performance-counter overflow: the interrupt handler
				// publishes the accumulated clock.
				delta := t.kendoAccum
				t.kendoAccum = 0
				t.mach.Interrupts++
				cycles += kendoInterruptCost
				t.mach.ClockUpdates++
				return sim.Step{Kind: sim.StepAdvance, Cycles: cycles, ClockDelta: delta}, nil
			}
		}
		if cycles >= t.mach.cfg.MaxStepCycles {
			return sim.Step{Kind: sim.StepAdvance, Cycles: cycles}, nil
		}
	}
}

// execInstr runs one instruction; yields are returned with their step.
func (t *Thread) execInstr(ins *ir.Instr, cycles *int64) (sim.Step, bool, error) {
	switch ins.Op {
	case ir.OpConst:
		t.setReg(ins.Dst, ins.A.Imm)
	case ir.OpMov:
		t.setReg(ins.Dst, t.val(ins.A))
	case ir.OpAdd:
		t.setReg(ins.Dst, t.val(ins.A)+t.val(ins.B))
	case ir.OpSub:
		t.setReg(ins.Dst, t.val(ins.A)-t.val(ins.B))
	case ir.OpMul:
		t.setReg(ins.Dst, t.val(ins.A)*t.val(ins.B))
	case ir.OpDiv:
		b := t.val(ins.B)
		if b == 0 {
			t.setReg(ins.Dst, 0)
		} else {
			t.setReg(ins.Dst, t.val(ins.A)/b)
		}
	case ir.OpMod:
		b := t.val(ins.B)
		if b == 0 {
			t.setReg(ins.Dst, 0)
		} else {
			t.setReg(ins.Dst, t.val(ins.A)%b)
		}
	case ir.OpAnd:
		t.setReg(ins.Dst, t.val(ins.A)&t.val(ins.B))
	case ir.OpOr:
		t.setReg(ins.Dst, t.val(ins.A)|t.val(ins.B))
	case ir.OpXor:
		t.setReg(ins.Dst, t.val(ins.A)^t.val(ins.B))
	case ir.OpShl:
		t.setReg(ins.Dst, t.val(ins.A)<<uint64(t.val(ins.B)&63))
	case ir.OpShr:
		t.setReg(ins.Dst, t.val(ins.A)>>uint64(t.val(ins.B)&63))
	case ir.OpNeg:
		t.setReg(ins.Dst, -t.val(ins.A))
	case ir.OpNot:
		t.setReg(ins.Dst, ^t.val(ins.A))
	case ir.OpEQ:
		t.setReg(ins.Dst, b2i(t.val(ins.A) == t.val(ins.B)))
	case ir.OpNE:
		t.setReg(ins.Dst, b2i(t.val(ins.A) != t.val(ins.B)))
	case ir.OpLT:
		t.setReg(ins.Dst, b2i(t.val(ins.A) < t.val(ins.B)))
	case ir.OpLE:
		t.setReg(ins.Dst, b2i(t.val(ins.A) <= t.val(ins.B)))
	case ir.OpGT:
		t.setReg(ins.Dst, b2i(t.val(ins.A) > t.val(ins.B)))
	case ir.OpGE:
		t.setReg(ins.Dst, b2i(t.val(ins.A) >= t.val(ins.B)))
	case ir.OpLoad:
		buf := t.mach.globals[ins.Sym]
		idx := t.val(ins.A)
		if idx < 0 || idx >= int64(len(buf)) {
			return sim.Step{}, false, t.errf("load %s[%d] out of bounds (size %d)", ins.Sym, idx, len(buf))
		}
		*cycles += t.mach.missCycles(ins.Sym, idx)
		if t.mach.race != nil {
			if err := t.raceAccess(ins, idx, false); err != nil {
				return sim.Step{}, false, err
			}
		}
		t.setReg(ins.Dst, buf[idx])
	case ir.OpStore:
		buf := t.mach.globals[ins.Sym]
		idx := t.val(ins.A)
		if idx < 0 || idx >= int64(len(buf)) {
			return sim.Step{}, false, t.errf("store %s[%d] out of bounds (size %d)", ins.Sym, idx, len(buf))
		}
		*cycles += t.mach.missCycles(ins.Sym, idx)
		if t.mach.race != nil {
			if err := t.raceAccess(ins, idx, true); err != nil {
				return sim.Step{}, false, err
			}
		}
		buf[idx] = t.val(ins.B)
		t.mach.StoresRetired++
	case ir.OpCall:
		return t.execCall(ins, cycles)
	case ir.OpSpawn:
		callee := t.mach.mod.Func(ins.Callee)
		if callee == nil {
			return sim.Step{}, false, t.errf("spawn of unknown function %q", ins.Callee)
		}
		if err := t.admitSpawn(ins.Callee); err != nil {
			return sim.Step{}, false, err
		}
		args := make([]int64, len(ins.Args))
		for k, a := range ins.Args {
			args[k] = t.val(a)
		}
		var dst *int64
		if ins.Dst != ir.NoReg {
			dst = &t.top().regs[ins.Dst]
		}
		return sim.Step{
			Kind:       sim.StepSpawn,
			Cycles:     *cycles,
			ClockDelta: t.syncFlush(),
			SpawnDst:   dst,
			NewProg: func(id int) sim.Program {
				nt := t.mach.thread(id)
				nt.push(callee, args, ir.NoReg)
				t.mach.spawned = append(t.mach.spawned, nt)
				return nt
			},
		}, true, nil
	case ir.OpJoin:
		return sim.Step{Kind: sim.StepJoin, Cycles: *cycles, Obj: int(t.val(ins.A)),
			ClockDelta: t.syncFlush()}, true, nil
	case ir.OpLock:
		return sim.Step{Kind: sim.StepLock, Cycles: *cycles, Obj: int(t.val(ins.A)),
			ClockDelta: t.syncFlush()}, true, nil
	case ir.OpUnlock:
		return sim.Step{Kind: sim.StepUnlock, Cycles: *cycles, Obj: int(t.val(ins.A)),
			ClockDelta: t.syncFlush()}, true, nil
	case ir.OpBarrier:
		return sim.Step{Kind: sim.StepBarrier, Cycles: *cycles, Obj: int(t.val(ins.A)),
			ClockDelta: t.syncFlush()}, true, nil
	case ir.OpTid:
		t.setReg(ins.Dst, int64(t.tid))
	case ir.OpNThreads:
		t.setReg(ins.Dst, int64(t.mach.cfg.Threads))
	case ir.OpPrint:
		t.Output = append(t.Output, t.val(ins.A))
	case ir.OpClockAdd:
		if t.mach.cfg.Mode == ModeDetLock {
			delta := ins.A.Imm
			if ins.Scale != 0 {
				delta += ins.Scale * t.val(ins.B)
			}
			if delta < 0 {
				delta = 0
			}
			t.mach.ClockUpdates++
			return sim.Step{Kind: sim.StepAdvance, Cycles: *cycles, ClockDelta: delta}, true, nil
		}
		// In Kendo mode instrumentation is absent by construction; if present
		// it is ignored (and costs nothing — PhysicalInstrCost charged above
		// is part of cycles already, keep it: the comparison harness always
		// runs Kendo on uninstrumented modules).
	default:
		return sim.Step{}, false, t.errf("unknown opcode %v", ins.Op)
	}
	return sim.Step{}, false, nil
}

// execCall handles user functions (push a frame) and builtins (evaluate).
func (t *Thread) execCall(ins *ir.Instr, cycles *int64) (sim.Step, bool, error) {
	if callee := t.mach.mod.Func(ins.Callee); callee != nil {
		args := make([]int64, len(ins.Args))
		for i, a := range ins.Args {
			args[i] = t.val(a)
		}
		if len(t.stack) >= 10_000 {
			return sim.Step{}, false, t.errf("call stack overflow calling %s", ins.Callee)
		}
		t.push(callee, args, ins.Dst)
		return sim.Step{}, false, nil
	}
	// Builtin: cost from the estimates table, value a deterministic pure
	// function of the arguments.
	args := make([]int64, len(ins.Args))
	for i, a := range ins.Args {
		args[i] = t.val(a)
	}
	est, ok := t.mach.est.Lookup(ins.Callee)
	if !ok {
		return sim.Step{}, false, t.errf("call to unknown builtin %q", ins.Callee)
	}
	cost := est.Eval(args)
	*cycles += cost
	// The builtin's instructions retire on the Kendo counter too.
	if t.mach.cfg.Mode == ModeKendo {
		t.kendoAccum += cost
	}
	t.setReg(ins.Dst, builtinValue(ins.Callee, args))
	return sim.Step{}, false, nil
}

// execTerm executes the current block's terminator.
func (t *Thread) execTerm(fr *frame, cycles *int64) (sim.Step, bool, error) {
	*cycles += t.mach.cm.TermCost(&fr.block.Term)
	t.RetiredInstrs++
	t.mach.InstrsExecuted++
	switch fr.block.Term.Kind {
	case ir.TermJmp:
		fr.block = fr.block.Term.Succs[0]
		fr.pc = 0
	case ir.TermBr:
		if t.val(fr.block.Term.Cond) != 0 {
			fr.block = fr.block.Term.Succs[0]
		} else {
			fr.block = fr.block.Term.Succs[1]
		}
		fr.pc = 0
	case ir.TermSwitch:
		v := t.val(fr.block.Term.Cond)
		target := fr.block.Term.Succs[len(fr.block.Term.Cases)]
		for i, c := range fr.block.Term.Cases {
			if v == c {
				target = fr.block.Term.Succs[i]
				break
			}
		}
		fr.block = target
		fr.pc = 0
	case ir.TermRet:
		ret := t.val(fr.block.Term.Ret)
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.stack) == 0 {
			t.done = true
			// Flush the residual Kendo count so final clocks are complete.
			delta := int64(0)
			if t.mach.cfg.Mode == ModeKendo && t.kendoAccum > 0 {
				delta = t.kendoAccum
				t.kendoAccum = 0
			}
			return sim.Step{Kind: sim.StepDone, Cycles: *cycles, ClockDelta: delta}, true, nil
		}
		t.setReg(fr.retDst, ret)
	default:
		return sim.Step{}, false, t.errf("missing terminator in %s", fr.block.Name)
	}
	return sim.Step{}, false, nil
}

// builtinValue computes deterministic results for builtins. Builtins are
// pure in this substrate (§III-B substitution: their cost matters for the
// clock, their value only needs to be deterministic).
func builtinValue(name string, args []int64) int64 {
	a := func(i int) int64 {
		if i >= 0 && i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "sqrt":
		return isqrt(a(0))
	case "abs", "fabs":
		if a(0) < 0 {
			return -a(0)
		}
		return a(0)
	case "min":
		if a(0) < a(1) {
			return a(0)
		}
		return a(1)
	case "max":
		if a(0) > a(1) {
			return a(0)
		}
		return a(1)
	case "sin", "cos", "tan", "exp", "log", "pow", "floor", "ceil":
		// Fixed-point-ish deterministic stand-in.
		return (a(0)*31 + a(1)*17) % 1024
	case "rand_r":
		v := a(0)
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		if v < 0 {
			v = -v
		}
		return v
	default: // memset, memcpy, bzero, ...: return the size argument
		return a(len(args) - 1)
	}
}

func isqrt(v int64) int64 {
	if v <= 0 {
		return 0
	}
	x := v
	for {
		y := (x + v/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
