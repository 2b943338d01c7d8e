// Package harness runs the paper's experiments: every benchmark × every
// optimization preset × every execution mode, producing the rows of Table I,
// Table II, and the series behind Figures 14 and 15.
package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/bin"
	"repro/internal/core"
	"repro/internal/estimates"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/splash"
)

// CPUHz converts simulated cycles to seconds; the paper's machine is a
// 2.66 GHz quad-core (§V).
const CPUHz = 2.66e9

// Mode is an execution configuration.
type Mode uint8

// Execution modes.
const (
	// ModeBaseline: uninstrumented module, plain FCFS locks — the paper's
	// "Original Exec Time" row.
	ModeBaseline Mode = iota
	// ModeClocksOnly: instrumented module, FCFS locks — "After Inserting
	// Clocks" (upper half of Table I).
	ModeClocksOnly
	// ModeDet: instrumented module, deterministic locks — "After Inserting
	// Clocks and Performing Deterministic Execution" (lower half).
	ModeDet
	// ModeKendo: uninstrumented module, deterministic locks driven by the
	// simulated retired-store counter — the Kendo baseline of Table II.
	ModeKendo
)

// RunResult captures one simulation.
type RunResult struct {
	Mode         Mode
	Makespan     int64
	WaitCycles   int64
	Acquisitions int64
	ClockUpdates int64
	Interrupts   int64
	Instrs       int64
	Steps        int64 // engine events (scheduler iterations)
	Clockable    int
	Trace        []sim.Acquisition
}

// Seconds converts the makespan to seconds at CPUHz.
func (r *RunResult) Seconds() float64 { return float64(r.Makespan) / CPUHz }

// LocksPerSec is the whole-run lock rate.
func (r *RunResult) LocksPerSec() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.Acquisitions) / r.Seconds()
}

// OverheadPct returns the percentage slowdown of r versus base.
func OverheadPct(r, base *RunResult) float64 {
	if base.Makespan == 0 {
		return 0
	}
	return (float64(r.Makespan)/float64(base.Makespan) - 1) * 100
}

// Runner caches per-benchmark baselines and shared tables.
type Runner struct {
	Threads int
	Costs   *ir.CostModel
	Est     *estimates.Table
	// KendoChunks is the chunk-size sweep used to "manually tune" the Kendo
	// baseline the way the paper's authors did (§V-C).
	KendoChunks []int64
	// RecordTraces enables acquisition traces on every run.
	RecordTraces bool
	// RaceCheck enables the fail-fast data-race detector on deterministic
	// runs (ModeDet and ModeKendo). Baseline modes are unaffected: their
	// FCFS schedules make race reports unreproducible, so the detector
	// stays off there.
	RaceCheck bool
	// Workers caps concurrent simulations for the table sweeps. Every
	// (benchmark × optset × mode) cell is an independent deterministic
	// simulation, so the pool changes wall-clock time only: reports are
	// byte-identical to a sequential run. 0 or 1 runs sequentially.
	Workers int
	// Reference selects the pre-optimization implementations of all three
	// hot loops (tree-walking interpreter, scanning scheduler, always-join
	// race detector). Results must be byte-identical either way — the
	// equivalence property tests run every workload through both.
	Reference bool
	// JitterSeed, when non-zero, perturbs physical timing deterministically
	// (interp.Config.JitterSeed): the seed-sweep property tests use it to
	// vary executions without touching logical behavior.
	JitterSeed int64
	// Cancel, when non-nil, is polled by the simulation engine between
	// scheduling steps (sim.Config.Cancel): a non-nil return cooperatively
	// aborts the run with sim.ErrCanceled. Wiring ctx.Err here bounds a
	// sweep's wall-clock time without perturbing uncancelled runs — the hook
	// never mutates engine state.
	Cancel func() error

	// dcache shares decoded instruction streams across the sweep's machines
	// and cache memoizes benchmark construction and instrumentation
	// (prep.go). Both are pointers, so Runner copies (a copy with
	// Reference flipped, say) share them; NewRunner is the one constructor.
	dcache *interp.DCache
	cache  *prepCache
}

// NewRunner returns a runner with the paper's defaults (4 threads).
func NewRunner() *Runner {
	return &Runner{
		Threads:     4,
		Costs:       ir.DefaultCostModel(),
		Est:         estimates.DefaultTable(),
		KendoChunks: []int64{100, 250, 1000, 4000, 16000, 64000},
		dcache:      interp.NewDCache(),
		cache:       newPrepCache(),
	}
}

// Run executes one benchmark under one mode/preset configuration.
// The opt parameter is ignored for ModeBaseline and ModeKendo.
func (r *Runner) Run(b *splash.Benchmark, opt core.Options, mode Mode, kendoChunk int64) (*RunResult, error) {
	res := &RunResult{Mode: mode}

	// Uninstrumented modes execute the benchmark module directly — the
	// interpreter never writes a module — while instrumenting modes run a
	// cached instrumented clone (prep.go).
	m := b.Module
	if mode == ModeClocksOnly || mode == ModeDet {
		im, clockable, err := r.instrument(b.Module, opt, b.Entry)
		if err != nil {
			return nil, fmt.Errorf("harness: instrument %s: %w", b.Name, err)
		}
		m = im
		res.Clockable = clockable
	}

	cfg := interp.Config{
		Module:     m,
		Costs:      r.Costs,
		Estimates:  r.Est,
		Threads:    b.Threads,
		Entry:      b.Entry,
		Reference:  r.Reference,
		JitterSeed: r.JitterSeed,
		DCache:     r.dcache,
		SkipVerify: r.verified(m),
	}
	if mode == ModeKendo {
		cfg.Mode = interp.ModeKendo
		cfg.KendoChunkSize = kendoChunk
	}
	deterministic := mode == ModeDet || mode == ModeKendo
	if r.RaceCheck && deterministic {
		cfg.Race = &interp.RaceConfig{Policy: interp.RaceFailFast, Reference: r.Reference}
	}
	policy := sim.PolicyFCFS
	if deterministic {
		policy = sim.PolicyDet
	}
	mach, _, stats, err := interp.Run(cfg, sim.Config{
		Policy:      policy,
		RecordTrace: r.RecordTraces,
		Reference:   r.Reference,
		Cancel:      r.Cancel,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	res.Makespan = stats.Makespan
	res.WaitCycles = stats.WaitCycles
	res.Acquisitions = stats.Acquisitions
	res.ClockUpdates = mach.ClockUpdates
	res.Interrupts = mach.Interrupts
	res.Instrs = mach.InstrsExecuted
	res.Steps = stats.Steps
	res.Trace = stats.Trace
	return res, nil
}

// runGrid runs per cells of each benchmark, cell(b, slot) for slot 0 …
// per-1, on up to r.Workers goroutines, and returns them in benchmark-major
// order: assembly order — and therefore every rendered table — is
// independent of scheduling. When several cells fail, the error of the
// lowest index wins, matching what a sequential sweep would have reported
// first.
func (r *Runner) runGrid(benches []*splash.Benchmark, per int, cell func(b *splash.Benchmark, slot int) (*RunResult, error)) ([]*RunResult, error) {
	n := len(benches) * per
	runs, errs := make([]*RunResult, n), make([]error, n)
	run := func(i int) error {
		runs[i], errs[i] = cell(benches[i/per], i%per)
		return errs[i]
	}
	workers := min(r.Workers, n)
	if workers <= 1 {
		for i := range n {
			if err := run(i); err != nil {
				return nil, err
			}
		}
		return runs, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// OverheadRow is a Table-I-style summary for one program under one preset:
// the baseline makespan, the clock-insertion overhead, and the full
// deterministic-execution overhead. The service layer computes one per job
// when the client requests the overhead_row artifact.
type OverheadRow struct {
	BaselineCycles int64   `json:"baseline_cycles"`
	BaselineMS     float64 `json:"baseline_ms"`
	LocksPerSec    float64 `json:"locks_per_sec"`
	Clockable      int     `json:"clockable"`
	ClocksPct      float64 `json:"clocks_overhead_pct"`
	DetPct         float64 `json:"det_overhead_pct"`
}

// UnmarshalJSON is json.Unmarshal's decoding, error text included, but for
// clockable, read as 64 bits and narrowed as the binary codec narrows it: a
// row decodes alike on every word size.
func (o *OverheadRow) UnmarshalJSON(b []byte) error {
	type plain OverheadRow
	type OverheadRow struct {
		*plain
		Clockable int64 `json:"clockable"`
	}
	w := OverheadRow{(*plain)(o), int64(o.Clockable)}
	err := json.Unmarshal(b, &w)
	o.Clockable = bin.Narrow(w.Clockable)
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		te.Field = strings.TrimPrefix(te.Field, "plain.")
	}
	return err
}

// OverheadRowFor runs the three simulations behind one Table I cell pair
// (baseline, clocks-only, clocks+det) for an arbitrary benchmark/module.
func (r *Runner) OverheadRowFor(b *splash.Benchmark, opt core.Options) (*OverheadRow, error) {
	base, err := r.Run(b, core.OptNone, ModeBaseline, 0)
	if err != nil {
		return nil, err
	}
	co, err := r.Run(b, opt, ModeClocksOnly, 0)
	if err != nil {
		return nil, err
	}
	de, err := r.Run(b, opt, ModeDet, 0)
	if err != nil {
		return nil, err
	}
	return &OverheadRow{
		BaselineCycles: base.Makespan,
		BaselineMS:     base.Seconds() * 1000,
		LocksPerSec:    base.LocksPerSec(),
		Clockable:      co.Clockable,
		ClocksPct:      OverheadPct(co, base),
		DetPct:         OverheadPct(de, base),
	}, nil
}

// PresetKeys lists Table I preset row keys in order.
func PresetKeys() []string { return []string{"none", "O1", "O2", "O3", "O4", "all"} }

// PresetByKey maps a row key to its option set.
func PresetByKey(key string) core.Options {
	switch key {
	case "none":
		return core.OptNone
	case "O1":
		return core.OptO1
	case "O2":
		return core.OptO2
	case "O3":
		return core.OptO3
	case "O4":
		return core.OptO4
	case "all":
		return core.OptAll
	}
	panic("harness: unknown preset key " + key)
}

// PresetLabel returns the Table I row label for a key.
func PresetLabel(key string) string { return core.PresetName(PresetByKey(key)) }
