// Command detload runs the deterministic workload plane: seeded arrival
// processes pushed through the job service (single node or LoopNet cluster)
// across a scenario matrix, with a deterministic result table.
//
// Usage:
//
//	detload                      # default matrix: every shape × {1,3} nodes + flaky cell
//	detload -smoke               # quick variant (1k jobs/scenario)
//	detload -seed N              # matrix seed (default 1)
//	detload -jobs N              # arrivals per scenario (default 100000)
//	detload -shape poisson       # restrict to one arrival shape
//	detload -mix blend           # job mix (default blend)
//	detload -nodes 3             # restrict to one topology (default: 1 and 3)
//	detload -nemesis flaky       # transport nemesis for cluster scenarios
//	detload -rate R              # mean arrivals/sec (default 2000)
//	detload -j N                 # scenario worker pool (0 = GOMAXPROCS)
//	detload -annex               # also print the wall-clock annex (non-deterministic)
//
// The main table contains only deterministic columns: two invocations with
// the same -seed render byte-identical tables regardless of -j. Wall-clock
// throughput and latency live in the -annex table, which is explicitly not
// comparable across runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"repro/internal/workload"
)

// invocation is one parsed command line.
type invocation struct {
	seed      int64
	jobs      int
	workers   int
	annex     bool
	scenarios []workload.Scenario
}

func parseArgs(args []string, onError flag.ErrorHandling) (*invocation, error) {
	fs := flag.NewFlagSet("detload", onError)
	var (
		seed    = fs.Int64("seed", 1, "matrix seed")
		jobs    = fs.Int("jobs", 100000, "arrivals per scenario")
		smoke   = fs.Bool("smoke", false, "quick run: 1000 arrivals per scenario")
		shape   = fs.String("shape", "", "restrict to one arrival shape")
		mixName = fs.String("mix", "blend", "job mix name")
		nodes   = fs.Int("nodes", 0, "restrict to one topology (0 = sweep 1 and 3)")
		nemesis = fs.String("nemesis", "", "transport nemesis for cluster scenarios (none, flaky, slow)")
		rate    = fs.Float64("rate", 2000, "mean arrivals per second")
		pool    = fs.Int("j", 0, "scenario worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
		annex   = fs.Bool("annex", false, "also print the wall-clock annex")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *jobs < 1 {
		return nil, fmt.Errorf("-jobs must be >= 1 (got %d)", *jobs)
	}
	if *rate <= 0 {
		return nil, fmt.Errorf("-rate must be positive (got %g)", *rate)
	}
	if *pool < 0 {
		return nil, fmt.Errorf("-j must be >= 0 (got %d)", *pool)
	}
	if *shape != "" && !slices.Contains(workload.Shapes(), workload.Shape(*shape)) {
		return nil, fmt.Errorf("unknown -shape %q (want one of %v)", *shape, workload.Shapes())
	}
	if *nodes != 0 && *nodes < 1 {
		return nil, fmt.Errorf("-nodes must be >= 1 (got %d)", *nodes)
	}
	var nem workload.Nemesis
	switch *nemesis {
	case "", "none":
		nem = workload.NemesisNone
	case "flaky":
		nem = workload.NemesisFlaky
	case "slow":
		nem = workload.NemesisSlow
	default:
		return nil, fmt.Errorf("unknown -nemesis %q (want none, flaky, or slow)", *nemesis)
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return nil, err
	}
	if *smoke {
		*jobs = 1000
	}
	workers := *pool
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &invocation{
		seed:      *seed,
		jobs:      *jobs,
		workers:   workers,
		annex:     *annex,
		scenarios: workload.Scenarios(workload.Shape(*shape), mix, *nodes, nem, *jobs, *rate),
	}, nil
}

func main() {
	inv, err := parseArgs(os.Args[1:], flag.ExitOnError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detload: %v\n", err)
		os.Exit(2)
	}
	results := workload.RunMatrix(context.Background(), workload.MatrixConfig{
		Seed:      inv.seed,
		Scenarios: inv.scenarios,
		Parallel:  inv.workers,
	})
	fmt.Printf("detload matrix: seed %d, %d scenarios, %d jobs each\n\n", inv.seed, len(inv.scenarios), inv.jobs)
	fmt.Print(workload.RenderTable(results))
	failed := false
	for _, r := range results {
		if r.Err != nil {
			failed = true
		}
	}
	if inv.annex {
		fmt.Println()
		fmt.Print(workload.RenderAnnex(results))
		fmt.Println("\n(annex columns are wall-clock measurements; only the main table is run-to-run comparable)")
	}
	if failed {
		os.Exit(1)
	}
}
