// Command detbench regenerates the paper's evaluation: Table I, Table II,
// Figure 14, Figure 15, and the ablation sweeps.
//
// Usage:
//
//	detbench -table1            # Table I (and Figure 14, derived)
//	detbench -table2            # Table II + Kendo chunk tuning ablation
//	detbench -fig15             # Figure 15 ahead-of-time ablation
//	detbench -ablation          # Kendo chunk sweep + lock-rate sensitivity
//	detbench -all               # everything
//	detbench -threads N         # thread count (default 4, as in the paper)
//	detbench -bench name        # restrict Table I/II to one benchmark
//	detbench -race              # fail-fast race detection on deterministic runs
//	detbench -j N               # worker pool for the sweep (default GOMAXPROCS)
//	detbench -cpuprofile PATH   # write a pprof CPU profile of the run
//	detbench -memprofile PATH   # write an end-of-run heap profile
//
// The (benchmark × optimization × mode) sweep cells are independent
// simulations, so -j runs them on a worker pool; the rendered tables are
// byte-identical to a sequential run regardless of N.
//
// -race is a correctness guard, not a benchmark mode: it perturbs the
// deterministic runs' instruction stream with detector checks, so overhead
// numbers produced with it enabled are not comparable to the paper's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"repro/internal/harness"
	"repro/internal/splash"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status: 0, 1 for a failed run, 2 for a bad invocation.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1   = fs.Bool("table1", false, "run the Table I sweep")
		table2   = fs.Bool("table2", false, "run the Table II comparison")
		fig15    = fs.Bool("fig15", false, "run the Figure 15 ablation")
		ablation = fs.Bool("ablation", false, "run the ablation sweeps")
		all      = fs.Bool("all", false, "run everything")
		threads  = fs.Int("threads", 4, "simulated thread count")
		bench    = fs.String("bench", "", "restrict to one benchmark")
		diag     = fs.String("diag", "", "print per-mode diagnostics for one benchmark")
		race     = fs.Bool("race", false, "enable fail-fast race detection on deterministic runs")
		jobs     = fs.Int("j", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = sequential)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write an end-of-run heap profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Validate flags up front: bad invocations get a short usage message,
	// never a mid-sweep error.
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "detbench: "+format+"\n", args...)
		return 2
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %v", fs.Args())
	}
	if *threads < 1 {
		return usage("-threads must be >= 1 (got %d)", *threads)
	}
	if *jobs < 0 {
		return usage("-j must be >= 0 (got %d)", *jobs)
	}
	if *bench != "" && !slices.Contains(splash.Names(), *bench) {
		return usage("unknown -bench %q (want one of %v)", *bench, splash.Names())
	}
	if *diag != "" && !slices.Contains(splash.Names(), *diag) {
		return usage("unknown -diag %q (want one of %v)", *diag, splash.Names())
	}
	workers := *jobs
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Profiles flush on every exit path.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return usage("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return usage("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "detbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "detbench: -memprofile:", err)
			}
		}()
	}
	r := harness.NewRunner()
	r.Threads = *threads
	r.RaceCheck = *race
	var err error
	if *diag != "" {
		err = runDiag(stdout, r, *diag)
	} else {
		r.Workers = workers
		if !*table1 && !*table2 && !*fig15 && !*ablation {
			*all = true
		}
		err = runReports(stdout, r, *bench, *table1 || *all, *table2 || *all, *fig15 || *all, *ablation || *all)
	}
	if err != nil {
		fmt.Fprintln(stderr, "detbench:", err)
		return 1
	}
	return 0
}

// runReports prints the reports asked for, Table I and II restricted to one
// benchmark when bench is set.
func runReports(w io.Writer, r *harness.Runner, bench string, table1, table2, fig15, ablation bool) error {
	if r.RaceCheck {
		fmt.Fprintln(w, "race detector enabled on deterministic runs; overheads below are NOT paper-comparable")
	}
	if table1 {
		if bench != "" {
			col, err := r.TableIFor(bench)
			if err != nil {
				return err
			}
			printColumn(w, col)
		} else {
			rep, err := r.TableI()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, rep.Render())
			fmt.Fprintln(w, harness.Fig14(rep).Render())
			fmt.Fprintf(w, "Average clock overhead: no-opt %.0f%% -> all-opt %.0f%% (paper: 20%% -> 8%%)\n",
				rep.AverageClocksPct("none"), rep.AverageClocksPct("all"))
			fmt.Fprintf(w, "Average det overhead:   no-opt %.0f%% -> all-opt %.0f%% (paper: 28%% -> 15%%)\n\n",
				rep.AverageDetPct("none"), rep.AverageDetPct("all"))
		}
	}
	if table2 {
		if bench != "" {
			row, err := r.TableIIFor(bench)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: kendo %.0f%% (chunk %d) detlock %.0f%% | paper %v/%v\n",
				row.Name, row.KendoPct, row.KendoChunk, row.DetLockPct,
				row.PaperKendoPct, row.PaperDetLockPct)
			fmt.Fprintf(w, "  chunk sweep: %v\n", row.KendoSweep)
		} else {
			rep, err := r.TableII()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, rep.Render())
		}
	}
	if fig15 {
		rep, err := r.Fig15()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.Render())
	}
	if ablation {
		return runAblations(w, r)
	}
	return nil
}

func printColumn(w io.Writer, col *harness.BenchTableI) {
	b := col.Bench
	fmt.Fprintf(w, "%s: baseline %.3f ms, %.0f locks/sec, %d clockable (paper %d), %d acq, basewait %d\n",
		b.Name, col.Baseline.Seconds()*1000, col.LocksPerSec, col.Clockable, b.PaperClockable,
		col.Baseline.Acquisitions, col.Baseline.WaitCycles)
	for _, key := range harness.PresetKeys() {
		fmt.Fprintf(w, "  %-6s clocks %6.1f%% (paper %3.0f%%)   det %6.1f%% (paper %3.0f%%)\n",
			key, col.ClocksPct[key], b.PaperClockOverheadPct[key],
			col.DetPct[key], b.PaperDetOverheadPct[key])
	}
}

// runDiag prints raw per-run numbers (makespan, wait cycles, clock updates)
// for every preset × mode of one benchmark.
func runDiag(w io.Writer, r *harness.Runner, name string) error {
	b, err := splash.New(name, r.Threads)
	if err != nil {
		return err
	}
	base, err := r.Run(b, harness.PresetByKey("none"), harness.ModeBaseline, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s baseline: makespan %d wait %d acq %d\n",
		name, base.Makespan, base.WaitCycles, base.Acquisitions)
	for _, key := range harness.PresetKeys() {
		co, err1 := r.Run(b, harness.PresetByKey(key), harness.ModeClocksOnly, 0)
		de, err2 := r.Run(b, harness.PresetByKey(key), harness.ModeDet, 0)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-5s clocks: makespan %8d wait %8d updates %7d | det: makespan %8d wait %8d\n",
			key, co.Makespan, co.WaitCycles, co.ClockUpdates, de.Makespan, de.WaitCycles)
	}
	return nil
}

// runAblations prints the Kendo chunk-size sweep for Radiosity (the paper's
// §V-C tuning discussion) and a lock-rate sensitivity sweep.
func runAblations(w io.Writer, r *harness.Runner) error {
	fmt.Fprintln(w, "Ablation: Kendo chunk-size sweep (radiosity)")
	row, err := r.TableIIFor("radiosity")
	if err != nil {
		return err
	}
	for _, chunk := range r.KendoChunks {
		fmt.Fprintf(w, "  chunk %6d: %6.1f%%\n", chunk, row.KendoSweep[chunk])
	}
	fmt.Fprintf(w, "  best: chunk %d at %.1f%%\n\n", row.KendoChunk, row.KendoPct)

	fmt.Fprintln(w, "Ablation: DetLock vs Kendo across lock rates")
	for _, name := range splash.Names() {
		rw, err := r.TableIIFor(name)
		if err != nil {
			return err
		}
		winner := "DetLock"
		if rw.KendoPct < rw.DetLockPct {
			winner = "Kendo"
		}
		fmt.Fprintf(w, "  %-10s %10.0f locks/sec: detlock %5.1f%%  kendo %5.1f%%  -> %s\n",
			name, rw.DetLockLocksSec, rw.DetLockPct, rw.KendoPct, winner)
	}
	return nil
}
