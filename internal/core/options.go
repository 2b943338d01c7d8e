// Package core implements the DetLock compiler pass: logical-clock insertion
// over the IR of package ir, plus the paper's four overhead-reduction
// optimizations (§IV).
//
// The pipeline mirrors the paper:
//
//  1. Classify calls: builtins come from the instruction-estimates file;
//     Optimization 1 (Function Clocking, Figure 4) computes the set of
//     "clocked" functions whose whole cost is charged at the call site,
//     ahead of execution.
//  2. Split blocks around remaining (unclocked) calls so that every other
//     block can carry a single clock value (§III-A).
//  3. Assign base block clocks from the cost model (one instruction = one
//     clock unit, multi-cycle instructions weighted, §III-A).
//  4. Apply Optimizations 2a, 2b (Conditional Blocks, Figures 6 and 9),
//     3 (Averaging of Clocks, Figure 11) and 4 (Loops, §IV-D).
//  5. Materialize remaining block clocks as clockadd instructions at the
//     start of each block (or the end, for the Figure 15 ablation).
package core

// The optimizations' admission thresholds, the paper's constants.
const (
	// rangeDiv and stdDiv are the isClockable admission divisors: a path
	// set is clockable when range <= mean/rangeDiv and std <= mean/stdDiv.
	rangeDiv = 2.5
	stdDiv   = 5
	// o2bMaxDivergence is the relative clock divergence allowed by
	// Optimization 2b: one tenth.
	o2bMaxDivergence = 0.1
	// o4Threshold is the clock of a back-edge source block from which
	// Optimization 4 no longer merges it into the loop header.
	o4Threshold = 12
)

// Options selects which optimizations run.
type Options struct {
	// O1 enables Function Clocking (Optimization 1).
	O1 bool
	// O2a enables the precise conditional-block rearrangement (Optimization 2a).
	O2a bool
	// O2b enables the lossy if-triangle shift (Optimization 2b).
	O2b bool
	// O3 enables Averaging of Clocks over dominated regions (Optimization 3).
	O3 bool
	// O4 enables the loop back-edge merge (Optimization 4).
	O4 bool

	// PlaceAtEnd puts clock updates at the end of each block instead of the
	// beginning. The paper shows (Figure 15) that start-of-block placement
	// substantially reduces deterministic-execution overhead; end placement
	// exists for that ablation.
	PlaceAtEnd bool

	// Roots names functions that are thread entry points; they are never
	// made clockable (their clocks must advance while they run).
	Roots []string
}

// Preset optimization selections matching the paper's Table I rows.
var (
	// OptNone inserts clocks with no optimization ("With No Optimization").
	OptNone = Options{}
	// OptO1 enables Function Clocking only.
	OptO1 = Options{O1: true}
	// OptO2 enables the Conditional Blocks optimization only (parts a and b).
	OptO2 = Options{O2a: true, O2b: true}
	// OptO3 enables Averaging of Clocks only.
	OptO3 = Options{O3: true}
	// OptO4 enables the Loops optimization only.
	OptO4 = Options{O4: true}
	// OptAll enables all optimizations ("With All Optimizations").
	OptAll = Options{O1: true, O2a: true, O2b: true, O3: true, O4: true}
)

// PresetName returns the Table I row label for one of the preset option sets.
func PresetName(o Options) string {
	switch {
	case o.O1 && o.O2a && o.O2b && o.O3 && o.O4:
		return "With All Optimizations"
	case o.O1:
		return "With Function Clocking Only (O1)"
	case o.O2a || o.O2b:
		return "With Conditional Blocks Optimization Only (O2)"
	case o.O3:
		return "With Averaging of Clocks Only (O3)"
	case o.O4:
		return "With Loops Optimization Only (O4)"
	default:
		return "With No Optimization"
	}
}

// TableIPresets lists the option sets of Table I in row order.
func TableIPresets() []Options {
	return []Options{OptNone, OptO1, OptO2, OptO3, OptO4, OptAll}
}
