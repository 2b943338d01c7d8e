package harness

import (
	"fmt"
	"strings"

	"repro/internal/splash"
)

// BenchTableI holds one benchmark's Table I column.
type BenchTableI struct {
	Bench       *splash.Benchmark
	Baseline    *RunResult
	Clockable   int
	LocksPerSec float64
	// ClocksPct and DetPct map preset keys to overhead percentages.
	ClocksPct map[string]float64
	DetPct    map[string]float64
}

// TableIReport is the full Table I reproduction.
type TableIReport struct {
	Threads int
	Columns []*BenchTableI
}

// TableI runs the Table I sweep: for every benchmark, a baseline run plus
// {clocks-only, clocks+det} × the six optimization presets. With
// Runner.Workers > 1 the full (benchmark × optset × mode) cell grid runs on
// a worker pool; every cell is an independent deterministic simulation, so
// the rendered report is byte-identical to the sequential sweep.
func (r *Runner) TableI() (*TableIReport, error) {
	return r.tableIReport(splash.Names())
}

// TableIFor runs a single benchmark's Table I column (used by benches).
func (r *Runner) TableIFor(name string) (*BenchTableI, error) {
	rep, err := r.tableIReport([]string{name})
	if err != nil {
		return nil, err
	}
	return rep.Columns[0], nil
}

func (r *Runner) tableIReport(names []string) (*TableIReport, error) {
	benches, err := r.benchesFor(names)
	if err != nil {
		return nil, err
	}
	keys := PresetKeys()
	// Cell layout per benchmark: [baseline, {clocks-only, det} × preset].
	per := 1 + 2*len(keys)
	runs := make([]*RunResult, len(benches)*per)
	err = r.runAll(len(runs), func(i int) error {
		b := benches[i/per]
		slot := i % per
		var res *RunResult
		var err error
		switch {
		case slot == 0:
			res, err = r.Run(b, PresetByKey("none"), ModeBaseline, 0)
		case slot%2 == 1:
			res, err = r.Run(b, PresetByKey(keys[(slot-1)/2]), ModeClocksOnly, 0)
		default:
			res, err = r.Run(b, PresetByKey(keys[(slot-1)/2]), ModeDet, 0)
		}
		runs[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &TableIReport{Threads: r.Threads}
	for bi, b := range benches {
		base := runs[bi*per]
		col := &BenchTableI{
			Bench:       b,
			Baseline:    base,
			LocksPerSec: base.LocksPerSec(),
			ClocksPct:   map[string]float64{},
			DetPct:      map[string]float64{},
		}
		for ki, key := range keys {
			co := runs[bi*per+1+2*ki]
			de := runs[bi*per+2+2*ki]
			col.ClocksPct[key] = OverheadPct(co, base)
			if key == "all" {
				col.Clockable = co.Clockable
			}
			col.DetPct[key] = OverheadPct(de, base)
		}
		rep.Columns = append(rep.Columns, col)
	}
	return rep, nil
}

// Render prints the report in the layout of the paper's Table I.
func (rep *TableIReport) Render() string {
	var sb strings.Builder
	names := make([]string, len(rep.Columns))
	for i, c := range rep.Columns {
		names[i] = c.Bench.Name
	}
	fmt.Fprintf(&sb, "Table I: Performance results (simulated, %d threads)\n\n", rep.Threads)
	row := func(label string, f func(c *BenchTableI) string, avg func() string) {
		fmt.Fprintf(&sb, "%-48s", label)
		for _, c := range rep.Columns {
			fmt.Fprintf(&sb, "%16s", f(c))
		}
		if avg != nil {
			fmt.Fprintf(&sb, "%10s", avg())
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-48s", "Benchmark")
	for _, n := range names {
		fmt.Fprintf(&sb, "%16s", n)
	}
	fmt.Fprintf(&sb, "%10s\n", "Average")

	row("Original Exec Time (ms)", func(c *BenchTableI) string {
		return fmt.Sprintf("%.3f", c.Baseline.Seconds()*1000)
	}, nil)
	row("Locks/sec", func(c *BenchTableI) string {
		return fmt.Sprintf("%.0f", c.LocksPerSec)
	}, nil)
	row("Clockable Functions", func(c *BenchTableI) string {
		return fmt.Sprintf("%d", c.Clockable)
	}, nil)

	section := func(title string, src func(c *BenchTableI) map[string]float64) {
		fmt.Fprintf(&sb, "\n%s\n", title)
		for _, key := range PresetKeys() {
			row(PresetLabel(key), func(c *BenchTableI) string {
				return fmt.Sprintf("%.0f%%", src(c)[key])
			}, func() string {
				var t float64
				for _, c := range rep.Columns {
					t += src(c)[key]
				}
				return fmt.Sprintf("%.0f%%", t/float64(len(rep.Columns)))
			})
		}
	}
	section("After Inserting Clocks", func(c *BenchTableI) map[string]float64 { return c.ClocksPct })
	section("After Inserting Clocks and Performing Deterministic Execution",
		func(c *BenchTableI) map[string]float64 { return c.DetPct })
	return sb.String()
}

// AverageClocksPct returns the cross-benchmark average clock overhead for a
// preset key (the paper's headline 20% → 8% numbers).
func (rep *TableIReport) AverageClocksPct(key string) float64 {
	var t float64
	for _, c := range rep.Columns {
		t += c.ClocksPct[key]
	}
	return t / float64(len(rep.Columns))
}

// AverageDetPct is the deterministic-execution analogue (28% → 15%).
func (rep *TableIReport) AverageDetPct(key string) float64 {
	var t float64
	for _, c := range rep.Columns {
		t += c.DetPct[key]
	}
	return t / float64(len(rep.Columns))
}

// --- Table II ---------------------------------------------------------------

// BenchTableII is one benchmark's DetLock-vs-Kendo comparison.
type BenchTableII struct {
	Name string
	// DetLock: all-optimizations deterministic overhead and lock rate.
	DetLockPct      float64
	DetLockLocksSec float64
	// Kendo: best overhead across the chunk sweep, with the winning chunk.
	KendoPct      float64
	KendoChunk    int64
	KendoLocksSec float64
	// KendoSweep records overhead per chunk size (the tuning ablation).
	KendoSweep map[int64]float64
	// Paper reference values.
	PaperDetLockPct float64
	PaperKendoPct   float64
}

// TableIIReport reproduces Table II plus the chunk-tuning ablation.
type TableIIReport struct {
	Threads int
	Rows    []*BenchTableII
}

// TableII compares DetLock (all optimizations) against the simulated Kendo
// baseline, tuning Kendo's chunk size per benchmark as the paper's authors
// did manually (§V-C). Like TableI, the (benchmark × mode × chunk) cells run
// on the worker pool when Runner.Workers > 1 with byte-identical output.
func (r *Runner) TableII() (*TableIIReport, error) {
	return r.tableIIReport(splash.Names())
}

// TableIIFor runs one benchmark's Table II row.
func (r *Runner) TableIIFor(name string) (*BenchTableII, error) {
	rep, err := r.tableIIReport([]string{name})
	if err != nil {
		return nil, err
	}
	return rep.Rows[0], nil
}

func (r *Runner) tableIIReport(names []string) (*TableIIReport, error) {
	benches, err := r.benchesFor(names)
	if err != nil {
		return nil, err
	}
	// Cell layout per benchmark: [baseline, det(all), kendo × chunk].
	per := 2 + len(r.KendoChunks)
	runs := make([]*RunResult, len(benches)*per)
	err = r.runAll(len(runs), func(i int) error {
		b := benches[i/per]
		slot := i % per
		var res *RunResult
		var err error
		switch {
		case slot == 0:
			res, err = r.Run(b, PresetByKey("none"), ModeBaseline, 0)
		case slot == 1:
			res, err = r.Run(b, PresetByKey("all"), ModeDet, 0)
		default:
			res, err = r.Run(b, PresetByKey("none"), ModeKendo, r.KendoChunks[slot-2])
		}
		runs[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &TableIIReport{Threads: r.Threads}
	for bi, b := range benches {
		base := runs[bi*per]
		det := runs[bi*per+1]
		row := &BenchTableII{
			Name:            b.Name,
			DetLockPct:      OverheadPct(det, base),
			DetLockLocksSec: base.LocksPerSec(),
			KendoSweep:      map[int64]float64{},
			PaperDetLockPct: b.PaperDetOverheadPct["all"],
			PaperKendoPct:   b.PaperKendoOverheadPct,
		}
		for ci, chunk := range r.KendoChunks {
			kr := runs[bi*per+2+ci]
			pct := OverheadPct(kr, base)
			row.KendoSweep[chunk] = pct
			if ci == 0 || pct < row.KendoPct {
				row.KendoPct = pct
				row.KendoChunk = chunk
				row.KendoLocksSec = kr.LocksPerSec()
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Render prints the Table II layout.
func (rep *TableIIReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II: DetLock vs Kendo (simulated, %d threads)\n\n", rep.Threads)
	fmt.Fprintf(&sb, "%-12s%16s%16s%16s%18s\n", "Benchmark", "Kendo ovh", "DetLock ovh", "Kendo chunk", "paper (K/D)")
	for _, row := range rep.Rows {
		fmt.Fprintf(&sb, "%-12s%15.0f%%%15.0f%%%16d%12.0f%%/%.0f%%\n",
			row.Name, row.KendoPct, row.DetLockPct, row.KendoChunk,
			row.PaperKendoPct, row.PaperDetLockPct)
	}
	return sb.String()
}

// --- Figure 15 ---------------------------------------------------------------

// Fig15Report reproduces Figure 15: Radiosity under no optimization, under
// Function Clocking with end-of-block updates, and under Function Clocking
// with start-of-block updates; each bar split into clock overhead and
// additional deterministic overhead.
type Fig15Report struct {
	Labels    []string
	ClocksPct []float64 // lower bar segment
	DetPct    []float64 // total (clock + deterministic)
}

// Fig15 runs the ahead-of-time ablation on Radiosity.
func (r *Runner) Fig15() (*Fig15Report, error) {
	b, err := r.benchFor("radiosity")
	if err != nil {
		return nil, err
	}
	base, err := r.Run(b, PresetByKey("none"), ModeBaseline, 0)
	if err != nil {
		return nil, err
	}
	rep := &Fig15Report{}
	configs := []struct {
		label string
		key   string
		end   bool
	}{
		{"no optimization", "none", false},
		{"O1, clocks at end of block", "O1", true},
		{"O1, clocks at start of block", "O1", false},
	}
	for _, cfg := range configs {
		opt := PresetByKey(cfg.key)
		opt.PlaceAtEnd = cfg.end
		co, err := r.Run(b, opt, ModeClocksOnly, 0)
		if err != nil {
			return nil, err
		}
		de, err := r.Run(b, opt, ModeDet, 0)
		if err != nil {
			return nil, err
		}
		rep.Labels = append(rep.Labels, cfg.label)
		rep.ClocksPct = append(rep.ClocksPct, OverheadPct(co, base))
		rep.DetPct = append(rep.DetPct, OverheadPct(de, base))
	}
	return rep, nil
}

// Render prints the Figure 15 bars as text.
func (rep *Fig15Report) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 15: Radiosity — effect of updating clocks ahead of time\n\n")
	for i, l := range rep.Labels {
		fmt.Fprintf(&sb, "%-32s clocks %6.1f%%   +det %6.1f%%   total %6.1f%%\n",
			l, rep.ClocksPct[i], rep.DetPct[i]-rep.ClocksPct[i], rep.DetPct[i])
	}
	return sb.String()
}

// --- Figure 14 ---------------------------------------------------------------

// Fig14Report holds the Figure 14 bar pairs (unoptimized vs all-optimized,
// each split into clock and deterministic portions), derived from Table I.
type Fig14Report struct {
	Names                   []string
	NoOptClocks, NoOptDet   []float64
	AllOptClocks, AllOptDet []float64
}

// Fig14 derives the Figure 14 series from a Table I report.
func Fig14(rep *TableIReport) *Fig14Report {
	out := &Fig14Report{}
	for _, c := range rep.Columns {
		out.Names = append(out.Names, c.Bench.Name)
		out.NoOptClocks = append(out.NoOptClocks, c.ClocksPct["none"])
		out.NoOptDet = append(out.NoOptDet, c.DetPct["none"])
		out.AllOptClocks = append(out.AllOptClocks, c.ClocksPct["all"])
		out.AllOptDet = append(out.AllOptDet, c.DetPct["all"])
	}
	return out
}

// Render prints the Figure 14 bars as text.
func (f *Fig14Report) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 14: Overhead of inserting clocks and deterministic execution\n\n")
	fmt.Fprintf(&sb, "%-12s%22s%22s\n", "Benchmark", "no-opt (clk/total)", "all-opt (clk/total)")
	for i, n := range f.Names {
		fmt.Fprintf(&sb, "%-12s%12.0f%%/%4.0f%%%16.0f%%/%4.0f%%\n",
			n, f.NoOptClocks[i], f.NoOptDet[i], f.AllOptClocks[i], f.AllOptDet[i])
	}
	return sb.String()
}
