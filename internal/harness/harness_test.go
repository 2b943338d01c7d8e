package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/splash"
)

// fastRunner uses 2 threads to keep the sweep cheap in unit tests.
func fastRunner() *Runner {
	r := NewRunner()
	r.Threads = 2
	r.KendoChunks = []int64{500, 8000}
	return r
}

func TestPresetPlumbing(t *testing.T) {
	for _, key := range PresetKeys() {
		opt := PresetByKey(key)
		label := PresetLabel(key)
		if label == "" {
			t.Fatalf("no label for %s", key)
		}
		_ = opt
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown preset should panic")
		}
	}()
	PresetByKey("bogus")
}

func TestRunModes(t *testing.T) {
	r := fastRunner()
	b, err := splash.New("water-nsq", r.Threads)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.Run(b, PresetByKey("none"), ModeBaseline, 0)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.ClockUpdates != 0 {
		t.Fatalf("baseline should have no clock updates, got %d", base.ClockUpdates)
	}
	co, err := r.Run(b, PresetByKey("none"), ModeClocksOnly, 0)
	if err != nil {
		t.Fatalf("clocks: %v", err)
	}
	if co.ClockUpdates == 0 {
		t.Fatalf("instrumented run should count updates")
	}
	if co.Makespan <= base.Makespan {
		t.Fatalf("clock insertion should cost cycles: %d vs %d", co.Makespan, base.Makespan)
	}
	de, err := r.Run(b, PresetByKey("none"), ModeDet, 0)
	if err != nil {
		t.Fatalf("det: %v", err)
	}
	if de.Makespan < co.Makespan {
		t.Fatalf("det should not be faster than clocks-only: %d vs %d", de.Makespan, co.Makespan)
	}
	ke, err := r.Run(b, PresetByKey("none"), ModeKendo, 1000)
	if err != nil {
		t.Fatalf("kendo: %v", err)
	}
	if ke.ClockUpdates == 0 && ke.Interrupts == 0 {
		t.Fatalf("kendo run should take interrupts")
	}
}

// TestInterruptCostTradeoff: Kendo's chunk size trades fresh published
// clocks for interrupts, so a smaller chunk takes more of them.
func TestInterruptCostTradeoff(t *testing.T) {
	r := fastRunner()
	b, err := splash.New("water-nsq", r.Threads)
	if err != nil {
		t.Fatal(err)
	}
	small, err := r.Run(b, PresetByKey("none"), ModeKendo, 100)
	if err != nil {
		t.Fatal(err)
	}
	large, err := r.Run(b, PresetByKey("none"), ModeKendo, 64000)
	if err != nil {
		t.Fatal(err)
	}
	if small.Interrupts <= large.Interrupts {
		t.Fatalf("smaller chunks must take more interrupts: %d vs %d",
			small.Interrupts, large.Interrupts)
	}
}

// TestRunnerCancel: a Cancel hook aborts a run mid-simulation with
// sim.ErrCanceled, and — because the hook never mutates engine state — a
// hook that never fires leaves the result byte-identical to no hook at all.
func TestRunnerCancel(t *testing.T) {
	r := fastRunner()
	b, err := splash.New("water-nsq", r.Threads)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.Run(b, PresetByKey("all"), ModeDet, 0)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	stop := errors.New("sweep budget exhausted")
	r.Cancel = func() error { return stop }
	if _, err := r.Run(b, PresetByKey("all"), ModeDet, 0); !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, stop) {
		t.Fatalf("canceled run err = %v, want sim.ErrCanceled wrapping the hook's error", err)
	}

	r.Cancel = func() error { return nil }
	again, err := r.Run(b, PresetByKey("all"), ModeDet, 0)
	if err != nil {
		t.Fatalf("armed-but-silent hook: %v", err)
	}
	if ref.Makespan != again.Makespan || ref.WaitCycles != again.WaitCycles ||
		ref.Acquisitions != again.Acquisitions || ref.ClockUpdates != again.ClockUpdates {
		t.Fatalf("cancel hook perturbed an uncancelled run: %+v vs %+v", ref, again)
	}
}

func TestOverheadPct(t *testing.T) {
	base := &RunResult{Makespan: 1000}
	r := &RunResult{Makespan: 1200}
	if got := OverheadPct(r, base); got < 19.999 || got > 20.001 {
		t.Fatalf("OverheadPct = %v, want 20", got)
	}
	if OverheadPct(r, &RunResult{}) != 0 {
		t.Fatalf("zero baseline should give 0")
	}
}

func TestRunResultRates(t *testing.T) {
	r := &RunResult{Makespan: 2_660_000, Acquisitions: 1000}
	// 2.66e6 cycles = 1ms at 2.66 GHz -> 1e6 locks/sec.
	if got := r.LocksPerSec(); got < 0.99e6 || got > 1.01e6 {
		t.Fatalf("LocksPerSec = %v", got)
	}
	if (&RunResult{}).LocksPerSec() != 0 {
		t.Fatalf("zero makespan rate should be 0")
	}
}

func TestTableIColumnInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep in -short mode")
	}
	r := fastRunner()
	col, err := r.TableIFor("water-nsq")
	if err != nil {
		t.Fatalf("TableIFor: %v", err)
	}
	// All optimizations must beat no optimization on clock overhead.
	if col.ClocksPct["all"] >= col.ClocksPct["none"] {
		t.Fatalf("all-opts %v should beat no-opt %v", col.ClocksPct["all"], col.ClocksPct["none"])
	}
	// Water-nsq's shape: O2 and O4 help, O1 and O3 do not (paper Table I).
	if col.ClocksPct["O2"] >= col.ClocksPct["none"]-5 {
		t.Errorf("O2 should cut water-nsq substantially: %v vs %v",
			col.ClocksPct["O2"], col.ClocksPct["none"])
	}
	if col.ClocksPct["O1"] < col.ClocksPct["none"]-5 {
		t.Errorf("O1 should not help water-nsq: %v vs %v",
			col.ClocksPct["O1"], col.ClocksPct["none"])
	}
	// Deterministic execution costs at least as much as clocks alone.
	for _, key := range PresetKeys() {
		if col.DetPct[key] < col.ClocksPct[key]-1 {
			t.Errorf("%s: det %v below clocks %v", key, col.DetPct[key], col.ClocksPct[key])
		}
	}
}

func TestTableIIRow(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep in -short mode")
	}
	r := fastRunner()
	row, err := r.TableIIFor("water-nsq")
	if err != nil {
		t.Fatalf("TableIIFor: %v", err)
	}
	if len(row.KendoSweep) != len(r.KendoChunks) {
		t.Fatalf("sweep has %d entries", len(row.KendoSweep))
	}
	// The chosen chunk must be the sweep minimum.
	for _, pct := range row.KendoSweep {
		if pct < row.KendoPct {
			t.Fatalf("best chunk not minimal: %v < %v", pct, row.KendoPct)
		}
	}
}

func TestRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep in -short mode")
	}
	r := fastRunner()
	col, err := r.TableIFor("ocean")
	if err != nil {
		t.Fatal(err)
	}
	rep := &TableIReport{Threads: r.Threads, Columns: []*BenchTableI{col}}
	out := rep.Render()
	for _, want := range []string{"Original Exec Time", "Locks/sec", "Clockable Functions",
		"With All Optimizations", "After Inserting Clocks"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I render missing %q", want)
		}
	}
	f14 := Fig14(rep)
	if !strings.Contains(f14.Render(), "ocean") {
		t.Errorf("Fig14 render missing benchmark name")
	}
	if rep.AverageClocksPct("none") != col.ClocksPct["none"] {
		t.Errorf("single-column average should equal the column")
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep in -short mode")
	}
	r := NewRunner() // 4 threads: the effect needs contention
	rep, err := r.Fig15()
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	if len(rep.Labels) != 3 {
		t.Fatalf("labels = %v", rep.Labels)
	}
	// O1 (either placement) must beat no optimization on total overhead.
	if rep.DetPct[1] >= rep.DetPct[0] || rep.DetPct[2] >= rep.DetPct[0] {
		t.Errorf("O1 bars should beat no-opt: %v", rep.DetPct)
	}
	// Start-of-block placement must not have a larger deterministic
	// supplement than end-of-block (the paper's Figure 15 effect).
	endGap := rep.DetPct[1] - rep.ClocksPct[1]
	startGap := rep.DetPct[2] - rep.ClocksPct[2]
	if startGap > endGap+0.5 {
		t.Errorf("start placement det gap %v should not exceed end placement %v",
			startGap, endGap)
	}
	if !strings.Contains(rep.Render(), "Figure 15") {
		t.Errorf("render missing title")
	}
}
