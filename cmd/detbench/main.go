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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/harness"
	"repro/internal/splash"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "run the Table I sweep")
		table2   = flag.Bool("table2", false, "run the Table II comparison")
		fig15    = flag.Bool("fig15", false, "run the Figure 15 ablation")
		ablation = flag.Bool("ablation", false, "run the ablation sweeps")
		all      = flag.Bool("all", false, "run everything")
		threads  = flag.Int("threads", 4, "simulated thread count")
		bench    = flag.String("bench", "", "restrict to one benchmark")
		diag     = flag.String("diag", "", "print per-mode diagnostics for one benchmark")
		race     = flag.Bool("race", false, "enable fail-fast race detection on deterministic runs")
		jobs     = flag.Int("j", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = sequential)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this path")
	)
	flag.Parse()
	// Validate flags up front: bad invocations get a short usage message,
	// never a mid-sweep error.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detbench: "+format+"\n", args...)
		os.Exit(2)
	}
	if flag.NArg() != 0 {
		usage("unexpected arguments %v", flag.Args())
	}
	if *threads < 1 {
		usage("-threads must be >= 1 (got %d)", *threads)
	}
	if *jobs < 0 {
		usage("-j must be >= 0 (got %d)", *jobs)
	}
	if *bench != "" && !knownBench(*bench) {
		usage("unknown -bench %q (want one of %v)", *bench, splash.Names())
	}
	if *diag != "" && !knownBench(*diag) {
		usage("unknown -diag %q (want one of %v)", *diag, splash.Names())
	}
	workers := *jobs
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Profiles flush on every exit path: fail() routes through finish too.
	finish := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			usage("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			usage("-cpuprofile: %v", err)
		}
		finish = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		prev := finish
		finish = func() {
			prev()
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "detbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "detbench: -memprofile:", err)
			}
		}
	}
	defer finish()
	if *diag != "" {
		r := harness.NewRunner()
		r.Threads = *threads
		r.RaceCheck = *race
		runDiag(r, *diag)
		return
	}
	if !*table1 && !*table2 && !*fig15 && !*ablation && !*all {
		*all = true
	}
	r := harness.NewRunner()
	r.Threads = *threads
	r.RaceCheck = *race
	r.Workers = workers
	if *race {
		fmt.Println("race detector enabled on deterministic runs; overheads below are NOT paper-comparable")
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "detbench:", err)
		finish()
		os.Exit(1)
	}

	if *table1 || *all {
		if *bench != "" {
			col, err := r.TableIFor(*bench)
			if err != nil {
				fail(err)
			}
			printColumn(col)
		} else {
			rep, err := r.TableI()
			if err != nil {
				fail(err)
			}
			fmt.Println(rep.Render())
			fmt.Println(harness.Fig14(rep).Render())
			fmt.Printf("Average clock overhead: no-opt %.0f%% -> all-opt %.0f%% (paper: 20%% -> 8%%)\n",
				rep.AverageClocksPct("none"), rep.AverageClocksPct("all"))
			fmt.Printf("Average det overhead:   no-opt %.0f%% -> all-opt %.0f%% (paper: 28%% -> 15%%)\n\n",
				rep.AverageDetPct("none"), rep.AverageDetPct("all"))
		}
	}
	if *table2 || *all {
		if *bench != "" {
			row, err := r.TableIIFor(*bench)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%s: kendo %.0f%% (chunk %d) detlock %.0f%% | paper %v/%v\n",
				row.Name, row.KendoPct, row.KendoChunk, row.DetLockPct,
				row.PaperKendoPct, row.PaperDetLockPct)
			fmt.Printf("  chunk sweep: %v\n", row.KendoSweep)
		} else {
			rep, err := r.TableII()
			if err != nil {
				fail(err)
			}
			fmt.Println(rep.Render())
		}
	}
	if *fig15 || *all {
		rep, err := r.Fig15()
		if err != nil {
			fail(err)
		}
		fmt.Println(rep.Render())
	}
	if *ablation || *all {
		runAblations(r)
	}
}

func printColumn(col *harness.BenchTableI) {
	b := col.Bench
	fmt.Printf("%s: baseline %.3f ms, %.0f locks/sec, %d clockable (paper %d), %d acq, basewait %d\n",
		b.Name, col.Baseline.Seconds()*1000, col.LocksPerSec, col.Clockable, b.PaperClockable,
		col.Baseline.Acquisitions, col.Baseline.WaitCycles)
	for _, key := range harness.PresetKeys() {
		fmt.Printf("  %-6s clocks %6.1f%% (paper %3.0f%%)   det %6.1f%% (paper %3.0f%%)\n",
			key, col.ClocksPct[key], b.PaperClockOverheadPct[key],
			col.DetPct[key], b.PaperDetOverheadPct[key])
	}
}

// knownBench reports whether name is one of the splash workloads.
func knownBench(name string) bool {
	for _, n := range splash.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// runDiag prints raw per-run numbers (makespan, wait cycles, clock updates)
// for every preset × mode of one benchmark.
func runDiag(r *harness.Runner, name string) {
	b, err := splash.New(name, r.Threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detbench:", err)
		os.Exit(1)
	}
	base, err := r.Run(b, harness.PresetByKey("none"), harness.ModeBaseline, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s baseline: makespan %d wait %d acq %d\n",
		name, base.Makespan, base.WaitCycles, base.Acquisitions)
	for _, key := range harness.PresetKeys() {
		co, err1 := r.Run(b, harness.PresetByKey(key), harness.ModeClocksOnly, 0)
		de, err2 := r.Run(b, harness.PresetByKey(key), harness.ModeDet, 0)
		if err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, "detbench:", err1, err2)
			os.Exit(1)
		}
		fmt.Printf("  %-5s clocks: makespan %8d wait %8d updates %7d | det: makespan %8d wait %8d\n",
			key, co.Makespan, co.WaitCycles, co.ClockUpdates, de.Makespan, de.WaitCycles)
	}
}

// runAblations prints the Kendo chunk-size sweep for Radiosity (the paper's
// §V-C tuning discussion) and a lock-rate sensitivity sweep.
func runAblations(r *harness.Runner) {
	fmt.Println("Ablation: Kendo chunk-size sweep (radiosity)")
	row, err := r.TableIIFor("radiosity")
	if err != nil {
		fmt.Fprintln(os.Stderr, "detbench:", err)
		os.Exit(1)
	}
	for _, chunk := range r.KendoChunks {
		fmt.Printf("  chunk %6d: %6.1f%%\n", chunk, row.KendoSweep[chunk])
	}
	fmt.Printf("  best: chunk %d at %.1f%%\n\n", row.KendoChunk, row.KendoPct)

	fmt.Println("Ablation: DetLock vs Kendo across lock rates")
	for _, name := range splash.Names() {
		rw, err := r.TableIIFor(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detbench:", err)
			os.Exit(1)
		}
		winner := "DetLock"
		if rw.KendoPct < rw.DetLockPct {
			winner = "Kendo"
		}
		fmt.Printf("  %-10s %10.0f locks/sec: detlock %5.1f%%  kendo %5.1f%%  -> %s\n",
			name, rw.DetLockLocksSec, rw.DetLockPct, rw.KendoPct, winner)
	}
}
