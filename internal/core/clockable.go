package core

import "repro/internal/ir"

// Optimization 1 — Function Clocking (paper Figure 4).
//
// A function is clockable when it has no loops, no synchronization, and no
// calls to unclocked functions, and the accumulated clocks of all its
// entry→return paths agree within the paper's criteria (range ≤ mean/RangeDiv,
// σ ≤ mean/StdDiv). Clockable functions get their whole mean cost charged at
// the call site before the call executes — the "ahead of time" increment that
// §V-B shows matters so much for deterministic-execution overhead.

// clockabilityAnalysis runs the fixpoint of UpdateClockableFuncList and
// returns the map from clockable function name to its mean clock.
func (p *passCtx) clockabilityAnalysis() map[string]int64 {
	clockable := map[string]int64{}
	if !p.opt.O1 {
		return clockable
	}
	roots := map[string]bool{}
	for _, r := range p.opt.Roots {
		roots[r] = true
	}
	// Spawned entry functions are thread roots too: their clocks must
	// advance while the thread runs, so they are never clocked.
	for _, f := range p.m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSpawn {
					roots[b.Instrs[i].Callee] = true
				}
			}
		}
	}
	for modified := true; modified; {
		modified = false
		for _, f := range p.m.Funcs {
			if roots[f.Name] {
				continue
			}
			if _, done := clockable[f.Name]; done {
				continue
			}
			avg, ok := p.isClockable(f, clockable)
			if ok {
				clockable[f.Name] = avg
				modified = true
			}
		}
	}
	return clockable
}

// isClockable implements the paper's ISCLOCKABLE (Figure 4, lines 1-13),
// extended with the structural requirements implied by the runtime: a
// clockable function must not contain synchronization operations (its whole
// clock is charged before it runs, so no lock inside could be sequenced).
func (p *passCtx) isClockable(f *ir.Func, clockable map[string]int64) (avg int64, ok bool) {
	clockOf := func(b *ir.Block) (int64, bool) {
		return p.analysisBlockClock(b, clockable)
	}
	clocks, err := ir.FunctionPathClocks(f, clockOf)
	if err != nil {
		// An empty function, ErrHasLoop, ErrUnclocked and ErrTooManyPaths
		// all mean "not clockable".
		return 0, false
	}
	st := ir.Stats(clocks)
	if !p.meetsCriteria(st) {
		return 0, false
	}
	return int64(st.Mean), true
}

// meetsCriteria applies the configured range/σ divisors.
func (p *passCtx) meetsCriteria(st ir.ClockStats) bool {
	if st.NPaths == 0 || st.Mean <= 0 {
		return false
	}
	if float64(st.Range) > st.Mean/p.opt.RangeDiv {
		return false
	}
	if st.Std > st.Mean/p.opt.StdDiv {
		return false
	}
	return true
}

// analysisBlockClock returns the statically-summarizable clock of a block:
// its own instruction cost plus the mean of every clocked callee and the
// folded cost of constant-argument builtins. It fails (ok=false) when the
// block contains synchronization, a call to an unclocked function, or a
// dynamic builtin whose size argument is not a constant.
func (p *passCtx) analysisBlockClock(b *ir.Block, clockable map[string]int64) (int64, bool) {
	total := p.cm.BlockCost(b)
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		switch ins.Op {
		case ir.OpLock, ir.OpUnlock, ir.OpBarrier, ir.OpSpawn, ir.OpJoin:
			return 0, false
		case ir.OpCall:
			c, kind := p.classifyCall(ins, clockable)
			switch kind {
			case callClocked:
				total += c
			default:
				return 0, false
			}
		}
	}
	return total, true
}

// callKind classifies a call site for instrumentation purposes.
type callKind int

const (
	// callClocked: callee cost is statically known (clockable function or
	// constant-argument builtin) and charged at the call site.
	callClocked callKind = iota
	// callDynamicBuiltin: builtin whose cost depends on a register argument;
	// charged at the call site with a dynamic clock update.
	callDynamicBuiltin
	// callUnclocked: ordinary instrumented function; callee carries its own
	// clock updates, the caller charges only call overhead.
	callUnclocked
)

// classifyCall returns the call-site clock charge (for callClocked) and the
// call kind. The charge excludes CallOverhead, which BlockCost already
// counts.
func (p *passCtx) classifyCall(ins *ir.Instr, clockable map[string]int64) (int64, callKind) {
	if mean, ok := clockable[ins.Callee]; ok {
		return mean, callClocked
	}
	if p.m.Func(ins.Callee) != nil {
		return 0, callUnclocked
	}
	if e, ok := p.est.Lookup(ins.Callee); ok {
		if !e.Dynamic() {
			return e.Eval(nil), callClocked
		}
		if e.ArgIndex < len(ins.Args) && ins.Args[e.ArgIndex].IsImm {
			// Constant size argument folds to a static charge.
			args := make([]int64, len(ins.Args))
			for i, a := range ins.Args {
				if a.IsImm {
					args[i] = a.Imm
				}
			}
			return e.Eval(args), callClocked
		}
		return 0, callDynamicBuiltin
	}
	// Unknown external function with no estimate: the paper's fallback is to
	// ignore it ("One way is to ignore them", §III-B).
	return 0, callClocked
}
