package ir

// CostModel maps instructions to logical-clock units. The paper's unit is
// "one instruction", with multi-cycle instructions charged their approximate
// cycle count (§III-A); the same model doubles as the simulator's physical
// cycle cost, so that logical clocks track execution progress the way
// Kendo's retired-store counter does.
type CostModel struct {
	// Op costs; index by Op. Zero entries fall back to DefaultCost.
	OpCost [opMax]int64
	// DefaultCost is used for ops without an explicit entry.
	DefaultCost int64
	// CallOverhead is charged at each call site (frame setup) in addition to
	// the callee body.
	CallOverhead int64
	// ClockUpdateCost is the physical cost of one materialized clock-update
	// instruction sequence (it is NOT added to the logical clock).
	ClockUpdateCost int64
}

// DefaultCostModel mirrors rough x86 latencies: simple ALU ops cost 1, mul 3,
// div 12, memory 2-3, and a two-instruction clock update (add + store to the
// thread's published clock slot) costs 2.
func DefaultCostModel() *CostModel {
	cm := &CostModel{
		DefaultCost:     1,
		CallOverhead:    2,
		ClockUpdateCost: 2,
	}
	cm.OpCost[OpMul] = 3
	cm.OpCost[OpDiv] = 12
	cm.OpCost[OpMod] = 12
	cm.OpCost[OpLoad] = 3
	cm.OpCost[OpStore] = 2
	cm.OpCost[OpCall] = 2 // charged via CallOverhead too; see InstrCost
	cm.OpCost[OpLock] = 12
	cm.OpCost[OpUnlock] = 8
	cm.OpCost[OpBarrier] = 20
	cm.OpCost[OpPrint] = 2
	cm.OpCost[OpClockAdd] = 2
	cm.OpCost[OpSpawn] = 150
	cm.OpCost[OpJoin] = 10
	return cm
}

// InstrCost returns the logical-clock cost of one instruction. Call
// instructions are charged only their overhead here; callee bodies are
// accounted separately (inline avg for clocked callees, or at runtime for
// unclocked ones). ClockAdd instructions cost nothing logically: they are
// instrumentation, not program work.
func (cm *CostModel) InstrCost(ins *Instr) int64 {
	switch ins.Op {
	case OpCall:
		return cm.CallOverhead
	case OpClockAdd:
		return 0
	}
	if c := cm.OpCost[ins.Op]; c != 0 {
		return c
	}
	return cm.DefaultCost
}

// TermCost returns the logical cost of executing the block terminator (a
// branch instruction; returns are charged like jumps).
func (cm *CostModel) TermCost(t *Term) int64 {
	switch t.Kind {
	case TermSwitch:
		// A switch lowers to a compare-and-branch chain or jump table.
		return cm.DefaultCost * 2
	default:
		return cm.DefaultCost
	}
}

// BlockCost sums the logical cost of a block's own instructions and its
// terminator, excluding callee bodies.
func (cm *CostModel) BlockCost(b *Block) int64 {
	var t int64
	for i := range b.Instrs {
		t += cm.InstrCost(&b.Instrs[i])
	}
	return t + cm.TermCost(&b.Term)
}

// PhysicalInstrCost is the simulator's cycle cost for one instruction: like
// InstrCost, but the instrumentation's clock updates do consume cycles.
func (cm *CostModel) PhysicalInstrCost(ins *Instr) int64 {
	if ins.Op == OpClockAdd {
		return cm.ClockUpdateCost
	}
	return cm.InstrCost(ins)
}
