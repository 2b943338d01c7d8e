// Sync idiom generators: seeded programs exercising higher-level
// synchronization patterns built from the three primitive sync ops the IR
// has (mutex lock/unlock, barrier). The sim mutex is owner-checked (a thread
// may only unlock a mutex it holds), so every idiom is constructed to
// respect ownership; spin/poll loops terminate under PolicyDet because each
// acquire and release ticks the spinner's logical clock, eventually handing
// the deterministic turn to the thread that makes progress.
//
// Every generated module is a pure function of (idiom, seed, cfg): the same
// inputs always yield the same program text, and running it under PolicyDet
// always yields the same schedule. That makes idioms usable as workload
// payloads whose deterministic cores can be compared byte-for-byte across
// runs and across cluster topologies.
package irgen

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/ir"
)

// Idiom names one synchronization pattern family.
type Idiom string

const (
	// IdiomCondvar is a condition-variable pipeline: thread t spin-waits
	// (lock; test flag; unlock) until thread t-1 publishes its stage flag,
	// consumes the predecessor's value, then publishes its own.
	IdiomCondvar Idiom = "condvar"
	// IdiomBarrierPhases is a bulk-synchronous program: P phases of
	// per-thread work separated by a global barrier, each phase reading a
	// neighbor's previous-phase result.
	IdiomBarrierPhases Idiom = "barrier"
	// IdiomRWLock is a reader/writer lock built from two mutexes: writers
	// serialize on the writer mutex and spin until the reader count (guarded
	// by the gate mutex) drains to zero; readers register, read outside the
	// gate, then deregister.
	IdiomRWLock Idiom = "rwlock"
	// IdiomRing is a bounded producer/consumer ring buffer: one mutex
	// guards head/tail/produced/consumed; producers retry while full,
	// consumers poll until the global consumed count reaches the total.
	IdiomRing Idiom = "ring"
	// IdiomDeque is a work-stealing pool: one task counter per thread, each
	// under its own mutex (locked by dynamic id); threads drain their own
	// queue then scan victims, calling into a generated function pool for
	// each task executed.
	IdiomDeque Idiom = "deque"
)

// Idioms returns every idiom kind, in a fixed order.
func Idioms() []Idiom {
	return []Idiom{IdiomCondvar, IdiomBarrierPhases, IdiomRWLock, IdiomRing, IdiomDeque}
}

// idiomMaxThreads bounds the thread count an idiom module supports: flag and
// task arrays are statically sized for this many threads (the programs adapt
// to the actual count at runtime via OpNThreads).
const idiomMaxThreads = 16

// GenerateIdiom builds the seeded program for one idiom. The module always
// verifies, terminates under PolicyDet for any thread count in
// [1, idiomMaxThreads], and is race-free (every shared access is ordered by
// the idiom's own synchronization). cfg bounds the embedded straight-line
// work the same way Generate does.
func GenerateIdiom(id Idiom, seed uint64, cfg Config) *ir.Module {
	r := detrand.FromState(seed ^ 0xA5F152E9D3B7C681)
	r.Next() // decouple the first draw from raw seed bits
	mb := ir.NewModule(fmt.Sprintf("idiom_%s_%d", id, seed))
	switch id {
	case IdiomCondvar:
		buildCondvar(mb, &r, cfg)
	case IdiomBarrierPhases:
		buildBarrierPhases(mb, &r, cfg)
	case IdiomRWLock:
		buildRWLock(mb, &r, cfg)
	case IdiomRing:
		buildRing(mb, &r, cfg)
	case IdiomDeque:
		buildDeque(mb, &r, cfg)
	default:
		panic(fmt.Sprintf("irgen: unknown idiom %q", id))
	}
	if err := mb.M.Verify(nil); err != nil {
		panic(fmt.Sprintf("irgen: idiom %s seed %d does not verify: %v", id, seed, err))
	}
	return mb.M
}

// seededWork emits 1..n straight-line ops folding into acc, drawn from r.
func seededWork(bb *ir.BlockBuilder, r *detrand.Rand, acc ir.Reg, maxLen int) {
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpOr}
	n := 1 + r.IntN(maxLen)
	for i := 0; i < n; i++ {
		bb.Bin(ops[r.IntN(len(ops))], acc, ir.R(acc), ir.Imm(int64(1+r.IntN(97))))
	}
}

// buildCondvar emits the condition-variable pipeline. Globals: stage[t] is
// thread t's "done" flag, val[t] its published value, both guarded by lock 0
// (the "condvar" mutex). Thread 0 starts immediately; thread t>0 spin-waits
// on stage[t-1], then folds in val[t-1] — a happens-before chain through
// lock 0 orders every publish before the successor's read.
func buildCondvar(mb *ir.ModuleBuilder, r *detrand.Rand, cfg Config) {
	mb.Global("stage", idiomMaxThreads)
	mb.Global("val", idiomMaxThreads)
	mb.Locks(1)

	fb := mb.Func("main")
	tid := fb.Reg("tid")
	acc := fb.Reg("acc")
	tmp := fb.Reg("tmp")

	entry := fb.Block("entry")
	entry.Tid(tid)
	entry.Mov(acc, ir.R(tid))
	entry.Bin(ir.OpMul, acc, ir.R(acc), ir.Imm(int64(3+r.IntN(29))))
	entry.Bin(ir.OpAdd, acc, ir.R(acc), ir.Imm(int64(1+r.IntN(50))))
	// Thread 0 has no predecessor.
	entry.Bin(ir.OpEQ, tmp, ir.R(tid), ir.Imm(0))
	entry.Br(ir.R(tmp), "work", "wait")

	wait := fb.Block("wait")
	prev := fb.Reg("prev")
	wait.Bin(ir.OpSub, prev, ir.R(tid), ir.Imm(1))
	wait.Lock(ir.Imm(0))
	wait.Load(tmp, "stage", ir.R(prev))
	wait.Unlock(ir.Imm(0))
	wait.Br(ir.R(tmp), "consume", "wait")

	consume := fb.Block("consume")
	consume.Lock(ir.Imm(0))
	consume.Load(tmp, "val", ir.R(prev))
	consume.Unlock(ir.Imm(0))
	consume.Bin(ir.OpXor, acc, ir.R(acc), ir.R(tmp))
	consume.Jmp("work")

	work := fb.Block("work")
	seededWork(work, r, acc, cfg.MaxBodyLen)
	// Publish: value first, then the flag, in one critical section.
	work.Lock(ir.Imm(0))
	work.Store("val", ir.R(tid), ir.R(acc))
	work.Store("stage", ir.R(tid), ir.Imm(1))
	work.Unlock(ir.Imm(0))
	work.Print(ir.R(acc))
	work.Ret(ir.R(acc))
}

// buildBarrierPhases emits the bulk-synchronous phase program: P phases,
// each writing mem[phase*stride + tid] then crossing barrier 0, then reading
// the ring neighbor's slot from the phase just completed. Slots are distinct
// per (phase, tid), so the only cross-thread edges are the barrier ones.
func buildBarrierPhases(mb *ir.ModuleBuilder, r *detrand.Rand, cfg Config) {
	phases := 2 + r.IntN(3)
	mb.Global("mem", int64(phases*idiomMaxThreads))
	mb.Barriers(1)

	fb := mb.Func("main")
	tid := fb.Reg("tid")
	n := fb.Reg("n")
	acc := fb.Reg("acc")
	tmp := fb.Reg("tmp")
	nb := fb.Reg("nb")
	idx := fb.Reg("idx")

	bb := fb.Block("entry")
	bb.Tid(tid)
	bb.NThreads(n)
	bb.Mov(acc, ir.R(tid))
	bb.Bin(ir.OpAdd, acc, ir.R(acc), ir.Imm(int64(7+r.IntN(41))))
	for p := 0; p < phases; p++ {
		seededWork(bb, r, acc, cfg.MaxBodyLen)
		bb.Bin(ir.OpAdd, idx, ir.R(tid), ir.Imm(int64(p*idiomMaxThreads)))
		bb.Store("mem", ir.R(idx), ir.R(acc))
		bb.Barrier(ir.Imm(0))
		// Branch-free ring neighbor: (tid+1) * (tid+1 < n).
		bb.Bin(ir.OpAdd, nb, ir.R(tid), ir.Imm(1))
		bb.Bin(ir.OpLT, tmp, ir.R(nb), ir.R(n))
		bb.Bin(ir.OpMul, nb, ir.R(nb), ir.R(tmp))
		bb.Bin(ir.OpAdd, nb, ir.R(nb), ir.Imm(int64(p*idiomMaxThreads)))
		bb.Load(tmp, "mem", ir.R(nb))
		bb.Bin(ir.OpXor, acc, ir.R(acc), ir.R(tmp))
	}
	bb.Print(ir.R(acc))
	bb.Ret(ir.R(acc))
}

// buildRWLock emits the two-mutex reader/writer idiom. Lock 0 is the gate
// guarding rw[0] (the reader count) and the shared array writes; lock 1
// serializes writers. Even tids write, odd tids read. A writer takes lock 1,
// then polls under lock 0 until the reader count is zero and performs its
// writes while still holding lock 0 — so registered readers and in-progress
// writes exclude each other, while readers read concurrently outside the
// gate. Ownership is respected: each mutex is released by its acquirer.
func buildRWLock(mb *ir.ModuleBuilder, r *detrand.Rand, cfg Config) {
	shared := 8
	mb.Global("rw", 1)
	mb.Global("data", int64(shared))
	mb.Locks(2)
	rounds := 1 + r.IntN(3)

	fb := mb.Func("main")
	tid := fb.Reg("tid")
	acc := fb.Reg("acc")
	tmp := fb.Reg("tmp")
	rc := fb.Reg("rc")

	entry := fb.Block("entry")
	entry.Tid(tid)
	entry.Mov(acc, ir.R(tid))
	entry.Bin(ir.OpMul, acc, ir.R(acc), ir.Imm(int64(5+r.IntN(23))))
	entry.Bin(ir.OpAnd, tmp, ir.R(tid), ir.Imm(1))
	entry.Br(ir.R(tmp), "read0", "write0")

	for round := 0; round < rounds; round++ {
		nextW := fmt.Sprintf("write%d", round+1)
		nextR := fmt.Sprintf("read%d", round+1)
		if round == rounds-1 {
			nextW, nextR = "exit", "exit"
		}

		// Writer round: lock 1; spin on rc==0 under lock 0; write; release.
		w := fb.Block(fmt.Sprintf("write%d", round))
		w.Lock(ir.Imm(1))
		w.Jmp(fmt.Sprintf("wpoll%d", round))
		poll := fb.Block(fmt.Sprintf("wpoll%d", round))
		poll.Lock(ir.Imm(0))
		poll.Load(rc, "rw", ir.Imm(0))
		poll.Bin(ir.OpEQ, tmp, ir.R(rc), ir.Imm(0))
		poll.Br(ir.R(tmp), fmt.Sprintf("wcrit%d", round), fmt.Sprintf("wback%d", round))
		back := fb.Block(fmt.Sprintf("wback%d", round))
		back.Unlock(ir.Imm(0))
		back.Jmp(fmt.Sprintf("wpoll%d", round))
		crit := fb.Block(fmt.Sprintf("wcrit%d", round))
		seededWork(crit, r, acc, cfg.MaxBodyLen)
		for i := 0; i < 2+r.IntN(3); i++ {
			slot := int64(r.IntN(shared))
			crit.Load(tmp, "data", ir.Imm(slot))
			crit.Bin(ir.OpAdd, tmp, ir.R(tmp), ir.R(acc))
			crit.Store("data", ir.Imm(slot), ir.R(tmp))
		}
		crit.Unlock(ir.Imm(0))
		crit.Unlock(ir.Imm(1))
		crit.Jmp(nextW)

		// Reader round: register under the gate, read outside it, deregister.
		rd := fb.Block(fmt.Sprintf("read%d", round))
		rd.Lock(ir.Imm(0))
		rd.Load(rc, "rw", ir.Imm(0))
		rd.Bin(ir.OpAdd, rc, ir.R(rc), ir.Imm(1))
		rd.Store("rw", ir.Imm(0), ir.R(rc))
		rd.Unlock(ir.Imm(0))
		for i := 0; i < 2+r.IntN(3); i++ {
			rd.Load(tmp, "data", ir.Imm(int64(r.IntN(shared))))
			rd.Bin(ir.OpXor, acc, ir.R(acc), ir.R(tmp))
		}
		rd.Lock(ir.Imm(0))
		rd.Load(rc, "rw", ir.Imm(0))
		rd.Bin(ir.OpSub, rc, ir.R(rc), ir.Imm(1))
		rd.Store("rw", ir.Imm(0), ir.R(rc))
		rd.Unlock(ir.Imm(0))
		rd.Jmp(nextR)
	}

	exit := fb.Block("exit")
	exit.Print(ir.R(acc))
	exit.Ret(ir.R(acc))
}

// buildRing emits the bounded producer/consumer ring. Global "ring" layout:
// [0]=head, [1]=tail, [2]=produced, [3]=consumed, buffer at 8..8+cap (cap is
// a power of two so indices wrap with a mask). The first ceil(n/2) threads
// produce perProd items each; the rest consume until the global consumed
// count reaches prods*perProd. With n==1 there are no consumers and the
// lone producer just fills and exits — the ring never deadlocks.
func buildRing(mb *ir.ModuleBuilder, r *detrand.Rand, cfg Config) {
	capacity := int64(4 << r.IntN(2)) // 4 or 8
	perProd := int64(2 + r.IntN(4))
	mb.Global("ring", 8+capacity)
	mb.Locks(1)

	fb := mb.Func("main")
	tid := fb.Reg("tid")
	n := fb.Reg("n")
	prods := fb.Reg("prods")
	total := fb.Reg("total")
	acc := fb.Reg("acc")
	tmp := fb.Reg("tmp")
	head := fb.Reg("head")
	tail := fb.Reg("tail")
	cnt := fb.Reg("cnt")
	i := fb.Reg("i")
	ok := fb.Reg("ok")

	entry := fb.Block("entry")
	entry.Tid(tid)
	entry.NThreads(n)
	// prods = ceil(n/2), total = prods * perProd.
	entry.Bin(ir.OpAdd, prods, ir.R(n), ir.Imm(1))
	entry.Bin(ir.OpDiv, prods, ir.R(prods), ir.Imm(2))
	entry.Bin(ir.OpMul, total, ir.R(prods), ir.Imm(perProd))
	entry.Mov(acc, ir.R(tid))
	entry.Bin(ir.OpMul, acc, ir.R(acc), ir.Imm(int64(11+r.IntN(31))))
	entry.Const(i, 0)
	entry.Bin(ir.OpLT, tmp, ir.R(tid), ir.R(prods))
	entry.Br(ir.R(tmp), "produce", "consume")

	// Producer: push f(tid, i) for i in [0, perProd); retry while full.
	prod := fb.Block("produce")
	prod.Bin(ir.OpLT, tmp, ir.R(i), ir.Imm(perProd))
	prod.Br(ir.R(tmp), "push", "drain")
	push := fb.Block("push")
	push.Lock(ir.Imm(0))
	push.Load(head, "ring", ir.Imm(0))
	push.Load(tail, "ring", ir.Imm(1))
	push.Bin(ir.OpSub, tmp, ir.R(head), ir.R(tail))
	push.Bin(ir.OpLT, ok, ir.R(tmp), ir.Imm(capacity))
	push.Br(ir.R(ok), "store", "full")
	store := fb.Block("store")
	store.Bin(ir.OpMul, tmp, ir.R(tid), ir.Imm(perProd))
	store.Bin(ir.OpAdd, tmp, ir.R(tmp), ir.R(i))
	store.Bin(ir.OpXor, tmp, ir.R(tmp), ir.Imm(int64(r.IntN(127))))
	store.Bin(ir.OpAnd, cnt, ir.R(head), ir.Imm(capacity-1))
	store.Bin(ir.OpAdd, cnt, ir.R(cnt), ir.Imm(8))
	store.Store("ring", ir.R(cnt), ir.R(tmp))
	store.Bin(ir.OpAdd, head, ir.R(head), ir.Imm(1))
	store.Store("ring", ir.Imm(0), ir.R(head))
	store.Load(tmp, "ring", ir.Imm(2))
	store.Bin(ir.OpAdd, tmp, ir.R(tmp), ir.Imm(1))
	store.Store("ring", ir.Imm(2), ir.R(tmp))
	store.Unlock(ir.Imm(0))
	store.Bin(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	store.Jmp("produce")
	full := fb.Block("full")
	full.Unlock(ir.Imm(0))
	full.Jmp("push")

	// Producers also drain: with one thread (no consumers) the items must
	// still leave the ring; with consumers present, "drain" exits at once
	// when consumed catches up. Producers and consumers share the pop path.
	drain := fb.Block("drain")
	drain.Jmp("consume")

	// Consumer: pop until consumed == total.
	cons := fb.Block("consume")
	cons.Lock(ir.Imm(0))
	cons.Load(cnt, "ring", ir.Imm(3))
	cons.Bin(ir.OpLT, tmp, ir.R(cnt), ir.R(total))
	cons.Br(ir.R(tmp), "avail", "finish")
	avail := fb.Block("avail")
	avail.Load(head, "ring", ir.Imm(0))
	avail.Load(tail, "ring", ir.Imm(1))
	avail.Bin(ir.OpLT, ok, ir.R(tail), ir.R(head))
	avail.Br(ir.R(ok), "pop", "empty")
	pop := fb.Block("pop")
	pop.Bin(ir.OpAnd, tmp, ir.R(tail), ir.Imm(capacity-1))
	pop.Bin(ir.OpAdd, tmp, ir.R(tmp), ir.Imm(8))
	pop.Load(tmp, "ring", ir.R(tmp))
	pop.Bin(ir.OpXor, acc, ir.R(acc), ir.R(tmp))
	pop.Bin(ir.OpAdd, tail, ir.R(tail), ir.Imm(1))
	pop.Store("ring", ir.Imm(1), ir.R(tail))
	pop.Bin(ir.OpAdd, cnt, ir.R(cnt), ir.Imm(1))
	pop.Store("ring", ir.Imm(3), ir.R(cnt))
	pop.Unlock(ir.Imm(0))
	pop.Jmp("consume")
	empty := fb.Block("empty")
	empty.Unlock(ir.Imm(0))
	empty.Jmp("consume")
	finish := fb.Block("finish")
	finish.Unlock(ir.Imm(0))
	finish.Print(ir.R(acc))
	finish.Ret(ir.R(acc))
}

// buildDeque emits the work-stealing pool. tasks[t] is thread t's pending
// task count, guarded by mutex t (a dynamic, register-valued lock id). Each
// thread drains its own counter, then scans victims 0..n-1 stealing one
// task at a time; every task executed calls into a generated function pool
// (the same machinery Generate uses), so stolen work carries real
// computation. Task counts only decrease, so the scan terminates.
func buildDeque(mb *ir.ModuleBuilder, r *detrand.Rand, cfg Config) {
	perThread := int64(2 + r.IntN(4))
	init := make([]int64, idiomMaxThreads)
	for t := range init {
		init[t] = perThread
	}
	mb.GlobalInit("tasks", init)
	mb.Global("mem", 256)
	mb.Locks(idiomMaxThreads)

	// Function pool for task bodies, acyclic exactly like Generate's.
	funcs := cfg.Funcs
	if funcs < 1 {
		funcs = 1
	}
	var pool []string
	for fi := 0; fi < funcs; fi++ {
		name := fmt.Sprintf("task_%d", fi)
		g := &gen{r: r, cfg: cfg, fb: mb.Func(name, "x"), callees: append([]string(nil), pool...)}
		g.buildFunc(cfg.MaxDepth - 1)
		pool = append(pool, name)
	}

	fb := mb.Func("main")
	tid := fb.Reg("tid")
	n := fb.Reg("n")
	acc := fb.Reg("acc")
	tmp := fb.Reg("tmp")
	cnt := fb.Reg("cnt")
	v := fb.Reg("v")

	entry := fb.Block("entry")
	entry.Tid(tid)
	entry.NThreads(n)
	entry.Mov(acc, ir.R(tid))
	entry.Bin(ir.OpAdd, acc, ir.R(acc), ir.Imm(int64(13+r.IntN(37))))
	entry.Jmp("own")

	// Drain own deque.
	own := fb.Block("own")
	own.Lock(ir.R(tid))
	own.Load(cnt, "tasks", ir.R(tid))
	own.Bin(ir.OpGT, tmp, ir.R(cnt), ir.Imm(0))
	own.Br(ir.R(tmp), "ownpop", "ownempty")
	ownpop := fb.Block("ownpop")
	ownpop.Bin(ir.OpSub, cnt, ir.R(cnt), ir.Imm(1))
	ownpop.Store("tasks", ir.R(tid), ir.R(cnt))
	ownpop.Unlock(ir.R(tid))
	ownpop.Call(tmp, pool[r.IntN(len(pool))], ir.R(acc))
	ownpop.Bin(ir.OpXor, acc, ir.R(acc), ir.R(tmp))
	ownpop.Jmp("own")
	ownempty := fb.Block("ownempty")
	ownempty.Unlock(ir.R(tid))
	ownempty.Const(v, 0)
	ownempty.Jmp("scan")

	// Steal scan: try victims v = 0..n-1, restarting from 0 after a
	// successful steal (the victim may have more).
	scan := fb.Block("scan")
	scan.Bin(ir.OpLT, tmp, ir.R(v), ir.R(n))
	scan.Br(ir.R(tmp), "victim", "done")
	victim := fb.Block("victim")
	victim.Bin(ir.OpEQ, tmp, ir.R(v), ir.R(tid))
	victim.Br(ir.R(tmp), "next", "try")
	try := fb.Block("try")
	try.Lock(ir.R(v))
	try.Load(cnt, "tasks", ir.R(v))
	try.Bin(ir.OpGT, tmp, ir.R(cnt), ir.Imm(0))
	try.Br(ir.R(tmp), "steal", "miss")
	steal := fb.Block("steal")
	steal.Bin(ir.OpSub, cnt, ir.R(cnt), ir.Imm(1))
	steal.Store("tasks", ir.R(v), ir.R(cnt))
	steal.Unlock(ir.R(v))
	steal.Call(tmp, pool[r.IntN(len(pool))], ir.R(acc))
	steal.Bin(ir.OpXor, acc, ir.R(acc), ir.R(tmp))
	steal.Const(v, 0)
	steal.Jmp("scan")
	miss := fb.Block("miss")
	miss.Unlock(ir.R(v))
	miss.Jmp("next")
	next := fb.Block("next")
	next.Bin(ir.OpAdd, v, ir.R(v), ir.Imm(1))
	next.Jmp("scan")

	done := fb.Block("done")
	done.Print(ir.R(acc))
	done.Ret(ir.R(acc))
}
