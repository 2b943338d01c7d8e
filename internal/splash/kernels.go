package splash

import (
	"fmt"

	"repro/internal/ir"
)

// addDiamondChainLeaf generates a leaf function shaped like the paper's
// worked example (the Radiosity `intersection_type` function of Figure 3): a
// chain of `diamonds` if/else diamonds with small arms, preceded by `pad`
// straight-line instructions. Arm costs are balanced within the isClockable
// criteria, so Optimization 1 clocks the function; without O1 every tiny
// block carries its own update — the expensive case the paper measures.
//
// The branch decisions hash the argument so consecutive calls exercise both
// arms deterministically.
//
// loads inserts that many data-dependent memory reads into the entry block.
// Their cache misses cost cycles the logical clock does not account for
// (package interp's miss model), so load-heavy kernels run with a lower
// clock-per-cycle slope than ALU-only ones — the clock-model error that
// makes threads wait for each other under deterministic execution.
func addDiamondChainLeaf(mb *ir.ModuleBuilder, name string, diamonds, armLen, pad, loads int) string {
	fb, h, y, c := kernelEntry(mb, name, pad, loads)

	for d := 0; d < diamonds; d++ {
		diamondCond(fb, d, h, c)
		next := dname(d+1, "cond")
		if d == diamonds-1 {
			next = "exit"
		}
		tb := fb.Block(dname(d, "then"))
		for k := 0; k < armLen; k++ {
			tb.Bin(ir.OpAdd, y, ir.R(y), ir.Imm(int64(2*k+1)))
		}
		tb.Jmp(next)
		sb := fb.Block(dname(d, "else"))
		for k := 0; k < armLen; k++ {
			sb.Bin(ir.OpXor, y, ir.R(y), ir.Imm(int64(3*k+1)))
		}
		sb.Jmp(next)
	}
	fb.Block("exit").Ret(ir.R(y))
	return name
}

// kernelEntry starts a kernel name(x) with registers h, y and c: its entry
// block hashes x into h, copies x to y, pads y with pad instructions, adds
// loads data-dependent reads of the kscratch global to y, and jumps to the
// first diamond.
func kernelEntry(mb *ir.ModuleBuilder, name string, pad, loads int) (fb *ir.FuncBuilder, h, y, c ir.Reg) {
	if loads > 0 {
		mb.Global("kscratch", 2048)
	}
	fb = mb.Func(name, "x")
	x := fb.Reg("x")
	h, y, c = fb.Reg("h"), fb.Reg("y"), fb.Reg("c")
	eb := fb.Block("entry")
	eb.Bin(ir.OpMul, h, ir.R(x), ir.Imm(2654435761))
	eb.Bin(ir.OpAdd, h, ir.R(h), ir.Imm(12345))
	eb.Mov(y, ir.R(x))
	padBlock(eb, y, pad)
	for k := 0; k < loads; k++ {
		eb.Bin(ir.OpAdd, c, ir.R(h), ir.Imm(int64(k*37)))
		eb.Bin(ir.OpAnd, c, ir.R(c), ir.Imm(2047))
		eb.Load(c, "kscratch", ir.R(c))
		eb.Bin(ir.OpAdd, y, ir.R(y), ir.R(c))
	}
	eb.Jmp(dname(0, "cond"))
	return fb, h, y, c
}

// diamondCond is diamond d's cond block: shift h right, branch on its low
// bit (c) to the diamond's then or else arm.
func diamondCond(fb *ir.FuncBuilder, d int, h, c ir.Reg) {
	cb := fb.Block(dname(d, "cond"))
	cb.Bin(ir.OpShr, h, ir.R(h), ir.Imm(1))
	cb.Bin(ir.OpAnd, c, ir.R(h), ir.Imm(1))
	cb.Br(ir.R(c), dname(d, "then"), dname(d, "else"))
}

func dname(d int, part string) string {
	return fmt.Sprintf("d%02d.%s", d, part)
}

// addSkipChainLeaf generates a clockable leaf whose *local* regions are
// unbalanced even though *whole-function* paths agree: each diamond's else
// arm skips the next diamond but carries (compensates) its cost. Function
// Clocking (O1) therefore admits the function, while Optimization 3's
// region averaging rejects every local region — matching the paper's
// observation that O3 rarely finds clockable regions in real code even
// inside functions O1 can clock (§V-A: "Optimization 3 had the least
// impact"). The skip edges also break the dominance O3 needs to grow
// regions past a single diamond.
func addSkipChainLeaf(mb *ir.ModuleBuilder, name string, diamonds, armLen, pad, loads int) string {
	fb, h, y, c := kernelEntry(mb, name, pad, loads)

	target := func(d int) string {
		if d >= diamonds {
			return "exit"
		}
		return dname(d, "cond")
	}
	// A then step consumes one diamond at cost cond(3) + arm(armLen+1); an
	// else step consumes two at elseLen = 2*armLen + 4 so both routes charge
	// the same clock per diamond consumed.
	elseLen := 2*armLen + 4
	for d := 0; d < diamonds; d++ {
		diamondCond(fb, d, h, c)
		tb := fb.Block(dname(d, "then"))
		for k := 0; k < armLen; k++ {
			tb.Bin(ir.OpAdd, y, ir.R(y), ir.Imm(int64(2*k+1)))
		}
		tb.Jmp(target(d + 1))
		sb := fb.Block(dname(d, "else"))
		for k := 0; k < elseLen; k++ {
			sb.Bin(ir.OpXor, y, ir.R(y), ir.Imm(int64(3*k+1)))
		}
		sb.Jmp(target(d + 2))
	}
	fb.Block("exit").Ret(ir.R(y))
	return name
}

// addTwoLevelKernels generates n outer kernels, each calling two dedicated
// inner leaf functions from its diamond arms (3n clockable functions total).
// This is the shape of the paper's radiosity kernels (Figure 3 shows
// `intersection_type` being *called from* conditional blocks):
//
//   - With O1, the inner leaves clock first and the outers follow in the
//     transitive fixpoint of UpdateClockableFuncList — the whole nest is
//     charged at the outer call site, ahead of execution.
//   - Without O1, the arms contain unclocked calls, so Optimization 3's
//     paths stop immediately and Optimization 2 cannot touch the arm blocks:
//     only O1 can lift this overhead, which is why the paper's radiosity
//     column shows O1's det reduction far exceeding the others'.
//
// Even-indexed outers carry `loads` clock-invisible memory reads.
func addTwoLevelKernels(mb *ir.ModuleBuilder, prefix string, n, diamonds, pad, loads int) []string {
	var outers []string
	for i := 0; i < n; i++ {
		// Paired inners with identical shape, so the outer's arms cost the
		// same and its whole-function paths stay balanced.
		innerShape := 3 + i%3
		innerA := addDiamondChainLeaf(mb, fmt.Sprintf("%s_%d_ia", prefix, i), 1, 2, innerShape, 0)
		innerB := addDiamondChainLeaf(mb, fmt.Sprintf("%s_%d_ib", prefix, i), 1, 2, innerShape, 0)

		name := fmt.Sprintf("%s_%d", prefix, i)
		outers = append(outers, name)
		l := 0
		if i%2 == 0 {
			l = loads
		}
		fb, h, y, c := kernelEntry(mb, name, pad+i%4, l)
		d := diamonds + i%3
		for k := 0; k < d; k++ {
			next := dname(k+1, "cond")
			if k == d-1 {
				next = "exit"
			}
			diamondCond(fb, k, h, c)
			tb := fb.Block(dname(k, "then"))
			tb.Call(c, innerA, ir.R(y))
			tb.Bin(ir.OpAdd, y, ir.R(y), ir.R(c))
			tb.Jmp(next)
			sb := fb.Block(dname(k, "else"))
			sb.Call(c, innerB, ir.R(y))
			sb.Bin(ir.OpXor, y, ir.R(y), ir.R(c))
			sb.Jmp(next)
		}
		fb.Block("exit").Ret(ir.R(y))
	}
	return outers
}

// addDiamondChainFamily generates n diamond-chain leaves with slight size
// variety and returns their names.
// Even-indexed members are load-heavy (loads > 0 when the loads argument is
// positive), odd ones pure ALU, mixing clock-per-cycle slopes across tasks.
func addDiamondChainFamily(mb *ir.ModuleBuilder, prefix string, n, diamonds, armLen, pad, loads int) []string {
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		l := 0
		if i%2 == 0 {
			l = loads
		}
		addDiamondChainLeaf(mb, name, diamonds+i%3, armLen, pad+i%5, l)
		names = append(names, name)
	}
	return names
}

// buildTaskQueuePop appends the standard "pop a task index" sequence on
// queue lock `lock` reading/advancing global `counter`; leaves the claimed
// index in dst and 0/1 in okReg. The caller provides the block; this emits:
//
//	lock; idx = load counter[0]; counter[0] = idx+grab; unlock
//	ok = idx < total
func buildTaskQueuePop(bb *ir.BlockBuilder, lockID int64, counter string, dst, tmp, ok ir.Reg, grab, total int64) {
	bb.Lock(ir.Imm(lockID))
	bb.Load(dst, counter, ir.Imm(0))
	bb.Bin(ir.OpAdd, tmp, ir.R(dst), ir.Imm(grab))
	bb.Store(counter, ir.Imm(0), ir.R(tmp))
	bb.Unlock(ir.Imm(lockID))
	bb.Bin(ir.OpLT, ok, ir.R(dst), ir.Imm(total))
}

// AddDiamondChainLeafForTest exposes the kernel generator to test packages.
func AddDiamondChainLeafForTest(mb *ir.ModuleBuilder, name string, diamonds, armLen, pad int) string {
	return addDiamondChainLeaf(mb, name, diamonds, armLen, pad, 0)
}
