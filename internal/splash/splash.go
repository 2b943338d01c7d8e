// Package splash provides synthetic IR workloads modeled on the five
// SPLASH-2 benchmarks the paper evaluates (§V): Ocean, Raytrace, Water-nsq,
// Radiosity and Volrend — the subset with only locks and barriers as
// synchronization.
//
// The real SPLASH-2 sources and the paper's data sets are not reproducible
// here (and the paper's own data sets were chosen to match Kendo's lock
// frequencies, which are likewise unavailable), so each generator
// reproduces the structural character the paper's analysis attributes to
// its benchmark:
//
//   - Ocean: large compute blocks over a grid, barriers per sweep, locks so
//     rare they are negligible → clock overhead ~0.
//   - Raytrace: a work queue of rays, each traced through a family of small
//     clockable intersection helpers → moderate lock rate, moderate clock
//     overhead, O1 helps.
//   - Water-nsq: a very tight inner loop whose body is an `if` inside a
//     small loop → worst clock overhead; O2 (conditionals) and O4 (loops)
//     are the optimizations that bite (§V-A).
//   - Radiosity: an extremely lock-intensive task queue feeding compute
//     kernels built from clockable functions → deterministic-execution
//     overhead dominated by clock staleness; O1's ahead-of-time charging is
//     the big win (§V-B).
//   - Volrend: ray casting with conditional traversal and a task-counter
//     lock → modest overheads.
//
// Workloads are scaled down so a full Table I sweep simulates in seconds;
// lock frequencies preserve the paper's ORDER (Ocean ≪ Water-nsq < Raytrace
// < Volrend ≪ Radiosity). EXPERIMENTS.md records per-benchmark paper-vs-
// measured values.
package splash

import (
	"fmt"

	"repro/internal/ir"
)

// Benchmark couples a generated module with its run parameters and the
// paper's reference numbers for reporting.
type Benchmark struct {
	Name    string
	Module  *ir.Module // uninstrumented; clone before instrumenting
	Threads int
	Entry   string

	// Paper reference values (Table I) for EXPERIMENTS.md comparison.
	PaperLocksPerSec      float64
	PaperClockable        int
	PaperClockOverheadPct map[string]float64 // preset row -> clocks-only %
	PaperDetOverheadPct   map[string]float64 // preset row -> clocks+det %
	// PaperKendoOverheadPct is the Kendo row of Table II.
	PaperKendoOverheadPct float64
	PaperKendoLocksPerSec float64
}

// Names lists the benchmarks in the paper's column order.
func Names() []string {
	return []string{"ocean", "raytrace", "water-nsq", "radiosity", "volrend"}
}

// New constructs a benchmark by name with the default scale.
func New(name string, threads int) (*Benchmark, error) {
	switch name {
	case "ocean":
		return Ocean(threads), nil
	case "raytrace":
		return Raytrace(threads), nil
	case "water-nsq":
		return WaterNSQ(threads), nil
	case "radiosity":
		return Radiosity(threads), nil
	case "volrend":
		return Volrend(threads), nil
	}
	return nil, fmt.Errorf("splash: unknown benchmark %q", name)
}

// All constructs the full suite.
func All(threads int) []*Benchmark {
	var out []*Benchmark
	for _, n := range Names() {
		b, err := New(n, threads)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// --- shared generator helpers ----------------------------------------------

// addClockableLeaves generates n small leaf functions with balanced branch
// arms (they pass the isClockable criteria) and returns their names. Each
// has a diamond CFG whose two arms cost the same, with per-function size
// variety; Optimization 1 clocks all of them.
func addClockableLeaves(mb *ir.ModuleBuilder, prefix string, n, baseWork int) []string {
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		names = append(names, name)
		fb := mb.Func(name, "x")
		x := fb.Reg("x")
		c := fb.Reg("c")
		y := fb.Reg("y")
		work := baseWork + i%5 // slight size variety across the family
		eb := fb.Block("entry")
		eb.Bin(ir.OpAnd, c, ir.R(x), ir.Imm(1))
		eb.Br(ir.R(c), "then", "else")
		tb := fb.Block("then")
		for k := 0; k < work; k++ {
			tb.Bin(ir.OpAdd, y, ir.R(x), ir.Imm(int64(k+1)))
		}
		tb.Jmp("merge")
		sb := fb.Block("else")
		for k := 0; k < work; k++ {
			sb.Bin(ir.OpSub, y, ir.R(x), ir.Imm(int64(k+2)))
		}
		sb.Jmp("merge")
		fb.Block("merge").Ret(ir.R(y))
	}
	return names
}

// padBlock appends cheap ALU work (cost 1 each) to a block.
func padBlock(bb *ir.BlockBuilder, scratch ir.Reg, n int) {
	for i := 0; i < n; i++ {
		bb.Bin(ir.OpAdd, scratch, ir.R(scratch), ir.Imm(int64(i|1)))
	}
}
