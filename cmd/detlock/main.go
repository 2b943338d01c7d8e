// Command detlock compiles (instruments) and deterministically executes a
// program in the textual IR format on the multicore simulator.
//
// Usage:
//
//	detlock [-threads N] [-opt none|O1|O2|O3|O4|all] [-baseline] \
//	        [-runs K] [-show-ir] prog.dir
//
// By default the program is instrumented with all optimizations and run
// deterministically; -runs K > 1 re-executes and verifies that the
// synchronization schedule is identical across runs (weak determinism).
//
// -race enables the deterministic data-race detector (requires the
// deterministic backend, i.e. incompatible with -baseline); -race-policy
// selects fail-fast (stop at the first race) or report (collect races and
// finish the run). Any race exits with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	detlock "repro"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status: 0, 1 for a failed run (a parse or pass error, a deadlock, a
// race, a divergence), 2 for a bad invocation.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlock", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads  = fs.Int("threads", 4, "simulated thread count")
		entry    = fs.String("entry", "main", "SPMD entry function")
		optName  = fs.String("opt", "all", "optimization preset: none|O1|O2|O3|O4|all")
		baseline = fs.Bool("baseline", false, "run uninstrumented with plain locks")
		runs     = fs.Int("runs", 1, "number of runs (schedules must match)")
		showIR   = fs.Bool("show-ir", false, "print the instrumented IR")
		race     = fs.Bool("race", false, "enable the deterministic data-race detector")
		racePol  = fs.String("race-policy", "fail", "race policy: fail (stop at first race) or report (collect and finish)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: detlock [flags] prog.dir")
		fs.Usage()
		return 2
	}
	// Validate flag combinations up front: a bad invocation should be a short
	// usage message, not a mid-pipeline error (or a preset-table panic).
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "detlock: "+format+"\n", args...)
		return 2
	}
	if *threads < 1 {
		return usage("-threads must be >= 1 (got %d)", *threads)
	}
	if *runs < 1 {
		return usage("-runs must be >= 1 (got %d)", *runs)
	}
	if !validKey(*optName) {
		return usage("unknown -opt %q (want one of %v)", *optName, harness.PresetKeys())
	}
	if *race && *baseline {
		return usage("-race requires the deterministic backend; drop -baseline")
	}
	if *racePol != "fail" && *racePol != "report" {
		return usage("unknown -race-policy %q (want fail or report)", *racePol)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "detlock:", detlock.FormatFailure(err))
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	m, err := detlock.ParseProgram(string(src))
	if err != nil {
		return fail(err)
	}

	cfg := detlock.SimConfig{
		Threads:        *threads,
		Entry:          *entry,
		Deterministic:  !*baseline,
		RecordSchedule: true,
	}
	if !*baseline {
		opt := harness.PresetByKey(*optName)
		cfg.Opt = &opt
	}
	if *race {
		rc := detlock.RaceConfig{Policy: detlock.RaceFailFast}
		if *racePol == "report" {
			rc.Policy = detlock.RaceReport
		}
		cfg.Race = &rc
	}

	if *showIR && cfg.Opt != nil {
		shown := m.Clone()
		if _, err := detlock.Instrument(shown, *cfg.Opt, *entry); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, detlock.FormatProgram(shown))
	}

	res, err := detlock.Simulate(m, cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "cycles: %d   wait: %d   lock acquisitions: %d   clock updates: %d\n",
		res.Cycles, res.WaitCycles, res.Acquisitions, res.ClockUpdates)
	if len(res.Clockable) > 0 {
		fmt.Fprintf(stdout, "clocked functions: %v\n", res.Clockable)
	}
	for tid, out := range res.Output {
		if len(out) > 0 {
			fmt.Fprintf(stdout, "thread %d output: %v\n", tid, out)
		}
	}
	if res.Schedule != nil && res.Schedule.Len() > 0 {
		fmt.Fprintf(stdout, "schedule hash: %016x (%d events)\n", res.Schedule.Hash(), res.Schedule.Len())
	}
	if len(res.Races) > 0 {
		for _, re := range res.Races {
			fmt.Fprintln(stderr, detlock.FormatFailure(re))
		}
		if res.RacesSuppressed > 0 {
			fmt.Fprintf(stderr, "detlock: %d further race reports suppressed by the cap\n", res.RacesSuppressed)
		}
		fmt.Fprintf(stderr, "detlock: %d data race(s) detected\n", len(res.Races))
		return 1
	} else if *race {
		fmt.Fprintln(stdout, "race detector: no races detected")
	}

	if *runs > 1 && !*baseline {
		if _, err := detlock.CheckDeterminism(m, cfg, *runs); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "determinism verified across %d runs\n", *runs)
	}
	return 0
}

// validKey reports whether name is a known optimization preset.
func validKey(name string) bool {
	for _, k := range harness.PresetKeys() {
		if k == name {
			return true
		}
	}
	return false
}
