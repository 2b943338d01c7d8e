// Package irgen generates random structured IR programs for differential
// testing of the DetLock pass: for any generated program, instrumentation
// must preserve semantics exactly (same outputs, same memory), precise
// optimizations must preserve the accumulated logical clock exactly, and
// lossy ones must stay within the paper's divergence bounds.
//
// Programs are generated from a seeded deterministic PRNG as nests of
// sequences, if/else diamonds, bounded loops and calls into a generated
// function pool — the shapes the optimizations pattern-match on — plus
// optional lock/barrier regions for schedule tests.
package irgen

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/ir"
)

// Config bounds the generated program.
type Config struct {
	// Funcs is the size of the callable function pool (besides main).
	Funcs int
	// MaxDepth bounds structural nesting.
	MaxDepth int
	// MaxBodyLen bounds straight-line block length.
	MaxBodyLen int
	// LoopIters bounds generated loop trip counts.
	LoopIters int
	// WithSync adds lock/unlock pairs and barrier calls to main.
	WithSync bool
	// Threads is used to size sync object tables when WithSync is set.
	Threads int
}

// Default returns a moderate configuration.
func Default() Config {
	return Config{Funcs: 4, MaxDepth: 4, MaxBodyLen: 6, LoopIters: 5, Threads: 2}
}

// gen carries generation state for one function.
type gen struct {
	r       *detrand.Rand
	cfg     Config
	fb      *ir.FuncBuilder
	acc     ir.Reg // running value; printed at the end of main
	tmp     ir.Reg
	scratch ir.Reg
	callees []string // functions this one may call (acyclic by construction)
	blockID int
}

// Generate builds a random module from seed. The module always verifies and
// always terminates (loops have constant bounds).
func Generate(seed uint64, cfg Config) *ir.Module {
	r := detrand.FromState(seed)
	mb := ir.NewModule(fmt.Sprintf("gen_%d", seed))
	mb.Global("mem", 256)
	if cfg.WithSync {
		mb.Locks(4)
		mb.Barriers(1)
	}

	// Function pool: fn_i may call fn_j only for j < i (no recursion).
	var pool []string
	for i := 0; i < cfg.Funcs; i++ {
		name := fmt.Sprintf("fn_%d", i)
		g := &gen{r: &r, cfg: cfg, fb: mb.Func(name, "x"), callees: append([]string(nil), pool...)}
		g.buildFunc(cfg.MaxDepth - 1)
		pool = append(pool, name)
	}

	g := &gen{r: &r, cfg: cfg, fb: mb.Func("main"), callees: pool}
	g.buildMain()
	if err := mb.M.Verify(nil); err != nil {
		panic(fmt.Sprintf("irgen: generated module does not verify: %v", err))
	}
	return mb.M
}

// buildFunc emits a function body: entry -> structure -> ret acc.
func (g *gen) buildFunc(depth int) {
	g.acc = g.fb.Reg("acc")
	g.tmp = g.fb.Reg("tmp")
	g.scratch = g.fb.Reg("scratch")
	x := g.fb.Reg("x")
	entry := g.fb.Block("entry")
	entry.Mov(g.acc, ir.R(x))
	exitName := "exit"
	g.structure(entry, depth, exitName, false)
	g.fb.Block(exitName).Ret(ir.R(g.acc))
}

// buildMain emits main: per-thread seed, structure, print.
func (g *gen) buildMain() {
	g.acc = g.fb.Reg("acc")
	g.tmp = g.fb.Reg("tmp")
	g.scratch = g.fb.Reg("scratch")
	entry := g.fb.Block("entry")
	entry.Tid(g.acc)
	entry.Bin(ir.OpMul, g.acc, ir.R(g.acc), ir.Imm(37))
	entry.Bin(ir.OpAdd, g.acc, ir.R(g.acc), ir.Imm(11))
	exitName := "exit"
	g.structure(entry, g.cfg.MaxDepth, exitName, g.cfg.WithSync)
	ex := g.fb.Block(exitName)
	if g.cfg.WithSync {
		ex.Barrier(ir.Imm(0))
	}
	ex.Print(ir.R(g.acc))
	ex.Ret(ir.R(g.acc))
}

// structure emits a random structure into cur, ending with a jump to next.
func (g *gen) structure(cur *ir.BlockBuilder, depth int, next string, sync bool) {
	n := 1 + g.r.IntN(3)
	for i := 0; i < n; i++ {
		last := i == n-1
		target := next
		if !last {
			target = g.newBlockName("seq")
		}
		g.one(cur, depth, target, sync)
		if !last {
			cur = g.fb.Block(target)
		}
	}
}

func (g *gen) newBlockName(hint string) string {
	g.blockID++
	return fmt.Sprintf("%s%d", hint, g.blockID)
}

// one emits one random construct into cur and terminates it toward next.
func (g *gen) one(cur *ir.BlockBuilder, depth int, next string, sync bool) {
	choice := g.r.IntN(10)
	switch {
	case depth <= 0 || choice < 3: // straight-line body
		g.body(cur)
		cur.Jmp(next)
	case choice < 6: // if/else diamond
		g.body(cur)
		cond := g.tmp
		cur.Bin(ir.OpAnd, cond, ir.R(g.acc), ir.Imm(int64(1+g.r.IntN(3))))
		thenN := g.newBlockName("then")
		elseN := g.newBlockName("else")
		cur.Br(ir.R(cond), thenN, elseN)
		tb := g.fb.Block(thenN)
		g.structure(tb, depth-1, next, false)
		eb := g.fb.Block(elseN)
		g.structure(eb, depth-1, next, false)
	case choice < 8: // bounded loop
		iters := 1 + g.r.IntN(g.cfg.LoopIters)
		ivar := g.fb.Reg(g.newBlockName("$i"))
		cur.Const(ivar, 0)
		hdrN := g.newBlockName("hdr")
		bodyN := g.newBlockName("lbody")
		latchN := g.newBlockName("latch")
		cur.Jmp(hdrN)
		hdr := g.fb.Block(hdrN)
		hdr.Bin(ir.OpLT, g.tmp, ir.R(ivar), ir.Imm(int64(iters)))
		hdr.Br(ir.R(g.tmp), bodyN, next)
		body := g.fb.Block(bodyN)
		g.structure(body, depth-1, latchN, false)
		latch := g.fb.Block(latchN)
		latch.Bin(ir.OpAdd, ivar, ir.R(ivar), ir.Imm(1))
		latch.Jmp(hdrN)
	case choice < 9 && len(g.callees) > 0: // call into the pool
		g.body(cur)
		callee := g.callees[g.r.IntN(len(g.callees))]
		cur.Call(g.tmp, callee, ir.R(g.acc))
		cur.Bin(ir.OpXor, g.acc, ir.R(g.acc), ir.R(g.tmp))
		cur.Jmp(next)
	default: // memory traffic (+ optional sync region)
		idx := g.scratch
		cur.Bin(ir.OpAnd, idx, ir.R(g.acc), ir.Imm(255))
		if sync {
			lockID := int64(g.r.IntN(4))
			cur.Lock(ir.Imm(lockID))
			cur.Load(g.tmp, "mem", ir.R(idx))
			cur.Bin(ir.OpAdd, g.tmp, ir.R(g.tmp), ir.Imm(1))
			cur.Store("mem", ir.R(idx), ir.R(g.tmp))
			cur.Unlock(ir.Imm(lockID))
		} else {
			cur.Load(g.tmp, "mem", ir.R(idx))
			cur.Bin(ir.OpAdd, g.acc, ir.R(g.acc), ir.R(g.tmp))
		}
		cur.Jmp(next)
	}
}

// body emits random straight-line arithmetic.
func (g *gen) body(cur *ir.BlockBuilder) {
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpAnd, ir.OpOr}
	n := 1 + g.r.IntN(g.cfg.MaxBodyLen)
	for i := 0; i < n; i++ {
		op := ops[g.r.IntN(len(ops))]
		imm := int64(1 + g.r.IntN(97))
		cur.Bin(op, g.acc, ir.R(g.acc), ir.Imm(imm))
	}
}
