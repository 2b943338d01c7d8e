package core

import (
	"fmt"
	"sort"

	"repro/internal/estimates"
	"repro/internal/ir"
)

// passCtx carries the state of one instrumentation run.
type passCtx struct {
	m         *ir.Module
	cm        *ir.CostModel
	est       *estimates.Table
	opt       Options
	clockable map[string]int64

	// f is the function O2a–O4 are working on and cfg its analysis, made
	// once: after the split, the passes move Block.Clock but no block or edge.
	f   *ir.Func
	cfg *ir.CFG
	// Sets over f's blocks by Block.Index: the pass walks' visited blocks,
	// O3's path stack, the blocks its current path walk has pushed, and the
	// region each block was averaged into.
	visited, onStack, pushed []bool
	region                   []int32
	regions                  int32
	// O3's stacks (blocks of the regions being resumed from, successors of
	// the paths being walked) and the clocks of the last region's paths.
	touched, next []*ir.Block
	clocks        []int64
}

// enter analyzes f and sizes the scratch for it.
func (p *passCtx) enter(f *ir.Func) {
	p.f, p.cfg = f, ir.Analyze(f)
	n := len(f.Blocks)
	p.visited, p.onStack, p.pushed = make([]bool, n), make([]bool, n), make([]bool, n)
	p.region, p.regions = make([]int32, n), 0
}

// Result reports what the pass did; the harness uses it for the "Clockable
// Functions" row of Table I and for sanity checks.
type Result struct {
	// Clockable maps each clocked function (Optimization 1) to its mean clock.
	Clockable map[string]int64
	// StaticClockAdds counts materialized constant clock updates.
	StaticClockAdds int
	// DynamicClockAdds counts materialized size-dependent builtin updates.
	DynamicClockAdds int
	// TotalStaticClock is the sum of all materialized constant clock values.
	TotalStaticClock int64
	// BlocksSplit counts blocks split around unclocked calls.
	BlocksSplit int
	// OptMoves counts clock relocations per optimization name ("O2a", ...).
	OptMoves map[string]int
}

// ClockableNames returns the clocked functions sorted by name.
func (r *Result) ClockableNames() []string {
	names := make([]string, 0, len(r.Clockable))
	for n := range r.Clockable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Instrument runs the DetLock pass over m in place: it inserts clockadd
// instructions realizing the logical clock of §III-A, applying the
// optimizations selected in opt. The module must verify against the builtin
// table beforehand, and is verified against it again afterwards. cm and est
// may be nil for defaults.
func Instrument(m *ir.Module, cm *ir.CostModel, est *estimates.Table, opt Options) (*Result, error) {
	p, res, err := analyze(m, cm, est, opt)
	if err != nil {
		return nil, err
	}
	p.materialize(res)
	if err := m.Verify(p.est.Has); err != nil {
		return nil, fmt.Errorf("core: instrumented module does not verify: %w", err)
	}
	return res, nil
}

// AnalyzeOnly runs the pipeline through the optimizations but does not
// materialize clockadds; cmd/detviz uses it to print per-stage block clocks.
func AnalyzeOnly(m *ir.Module, cm *ir.CostModel, est *estimates.Table, opt Options) (*Result, error) {
	_, res, err := analyze(m, cm, est, opt)
	return res, err
}

// analyze runs everything up to materialization: it leaves every block's
// final clock in Block.Clock.
func analyze(m *ir.Module, cm *ir.CostModel, est *estimates.Table, opt Options) (*passCtx, *Result, error) {
	if cm == nil {
		cm = ir.DefaultCostModel()
	}
	if est == nil {
		est = estimates.DefaultTable()
	}
	opt = opt.Defaults()
	if err := m.Verify(est.Has); err != nil {
		return nil, nil, fmt.Errorf("core: module does not verify: %w", err)
	}
	p := &passCtx{m: m, cm: cm, est: est, opt: opt}
	res := &Result{OptMoves: map[string]int{}}

	// Optimization 1: fixpoint of the clockable-function list.
	p.clockable = p.clockabilityAnalysis()
	res.Clockable = p.clockable

	// Split blocks around unclocked calls so every remaining block carries
	// one clock value (§III-A).
	res.BlocksSplit = p.splitAroundUnclockedCalls()

	// Base block clocks from the cost model; clocked functions' bodies carry
	// no clocks (their mean is charged at call sites).
	p.assignBaseClocks()

	// Block-level optimizations, in the paper's order.
	blockOpts := opt.O2a || opt.O2b || opt.O3 || opt.O4
	for _, f := range p.m.Funcs {
		if _, isClocked := p.clockable[f.Name]; isClocked || !blockOpts {
			continue
		}
		p.enter(f)
		if opt.O2a {
			res.OptMoves["O2a"] += p.applyOpt2a()
		}
		if opt.O2b {
			res.OptMoves["O2b"] += p.applyOpt2b()
		}
		if opt.O3 {
			res.OptMoves["O3"] += p.applyOpt3()
		}
		if opt.O4 {
			res.OptMoves["O4"] += p.applyOpt4()
		}
	}
	return p, res, nil
}

// splitAroundUnclockedCalls isolates each call to an unclocked function —
// and each synchronization operation, which in the paper is a call to the
// DetLock runtime (det_mutex_lock etc.) — in its own block, so that all
// other blocks are free of unclocked calls and can participate in the
// optimizations. Mirrors the paper's block splitting: the block keeps its
// name up to the call; the remainder becomes "split.<name>".
//
// Splitting around sync operations also matters for Figure 15's placement
// ablation: with the lock isolated, every update of the blocks preceding it
// executes before the thread waits — under either placement — so
// end-of-block placement purely delays the publication other threads wait
// on, without also deflating the waiter's own clock.
func (p *passCtx) splitAroundUnclockedCalls() int {
	split := 0
	for _, f := range p.m.Funcs {
		split += f.SplitBlocks(func(b *ir.Block) (int, string) {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				switch ins.Op {
				case ir.OpLock, ir.OpUnlock, ir.OpBarrier, ir.OpSpawn, ir.OpJoin:
					// sync op: isolate like an unclocked call
				case ir.OpCall:
					if _, kind := p.classifyCall(ins, p.clockable); kind != callUnclocked {
						continue
					}
				default:
					continue
				}
				if i > 0 {
					// Move the call (and everything after) into a new block,
					// which is examined next.
					return i, "call." + b.Name
				}
				if len(b.Instrs) > 1 {
					// Call is first: split the tail off after it.
					return 1, "split." + b.Name
				}
				break
			}
			return -1, ""
		})
	}
	return split
}

// assignBaseClocks computes every block's clock from the cost model plus
// call-site charges, and marks blocks containing unclocked calls or dynamic
// builtins as unclockable for the optimizations.
func (p *passCtx) assignBaseClocks() {
	for _, f := range p.m.Funcs {
		_, isClocked := p.clockable[f.Name]
		for _, b := range f.Blocks {
			b.Clock = 0
			b.Unclockable = false
			if isClocked {
				continue // body carries no clocks; mean charged at call sites
			}
			clock := p.cm.BlockCost(b)
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				switch ins.Op {
				case ir.OpLock, ir.OpUnlock, ir.OpBarrier, ir.OpSpawn, ir.OpJoin:
					// Sync operations are runtime calls: the optimizations
					// must not move clocks across them.
					b.Unclockable = true
					continue
				}
				if ins.Op != ir.OpCall {
					continue
				}
				c, kind := p.classifyCall(ins, p.clockable)
				switch kind {
				case callClocked:
					clock += c
				case callDynamicBuiltin:
					// Static part of the estimate; dynamic part is emitted at
					// materialization as a scaled clockadd.
					if e, ok := p.est.Lookup(ins.Callee); ok {
						clock += e.Base
					}
					b.Unclockable = true
				case callUnclocked:
					b.Unclockable = true
				}
			}
			b.Clock = clock
		}
	}
}

// materialize emits the clockadd instructions for every non-zero block clock
// and for every dynamic builtin call site.
func (p *passCtx) materialize(res *Result) {
	for _, f := range p.m.Funcs {
		if _, isClocked := p.clockable[f.Name]; isClocked {
			continue
		}
		// One array holds the function's new instruction lists: every old
		// instruction and a static update per block. The rare dynamic update
		// may outgrow it; finished lists then stay where they are.
		n := len(f.Blocks)
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		out := make([]ir.Instr, 0, n)
		for _, b := range f.Blocks {
			start := len(out)
			static := b.Clock
			emitStatic := func() {
				if static > 0 {
					out = append(out, ir.Instr{Op: ir.OpClockAdd, A: ir.Imm(static)})
					res.StaticClockAdds++
					res.TotalStaticClock += static
					static = 0
				}
			}
			if !p.opt.PlaceAtEnd {
				emitStatic()
			}
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				if ins.Op == ir.OpCall {
					if _, kind := p.classifyCall(ins, p.clockable); kind == callDynamicBuiltin {
						if e, ok := p.est.Lookup(ins.Callee); ok && e.ArgIndex < len(ins.Args) {
							// Charge the size-dependent part right before the
							// call (ahead of time); the constant part is in
							// the block's static clock.
							out = append(out, ir.Instr{
								Op:    ir.OpClockAdd,
								A:     ir.Imm(0),
								B:     ins.Args[e.ArgIndex],
								Scale: e.Scale,
							})
							res.DynamicClockAdds++
						}
					}
				}
				out = append(out, *ins)
			}
			if p.opt.PlaceAtEnd {
				emitStatic()
			}
			b.Instrs = out[start:len(out):len(out)]
		}
	}
}
