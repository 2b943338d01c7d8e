package workload

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Scenario is one cell of the matrix: an arrival shape × job mix × topology
// × nemesis schedule combination.
type Scenario struct {
	Name    string
	Arrival ArrivalConfig
	Mix     MixSpec
	Nodes   int
	Nemesis Nemesis
}

// MatrixConfig parameterizes a matrix sweep.
type MatrixConfig struct {
	// Seed roots every scenario (each scenario's streams derive from
	// Seed ^ its index, so scenarios are independent but reproducible).
	Seed int64
	// Scenarios is the sweep, run in order.
	Scenarios []Scenario
	// Parallel is the scenario worker-pool size (detbench -j pattern;
	// default 1). Results are merged in scenario index order, so the
	// rendered table is byte-identical regardless of parallelism.
	Parallel int
}

// ScenarioResult pairs a scenario with its outcome (or error).
type ScenarioResult struct {
	Scenario Scenario
	Outcome  *Outcome
	Err      error
}

// RunMatrix sweeps the scenarios on a bounded worker pool and returns
// results in scenario order.
func RunMatrix(ctx context.Context, cfg MatrixConfig) []ScenarioResult {
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	results := make([]ScenarioResult, len(cfg.Scenarios))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallel)
	for i, sc := range cfg.Scenarios {
		i, sc := i, sc
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out, err := Run(ctx, RunConfig{
				Seed:    cfg.Seed ^ int64(i)*0x9E3779B9,
				Arrival: sc.Arrival,
				Mix:     sc.Mix,
				Nodes:   sc.Nodes,
				Nemesis: sc.Nemesis,
			})
			results[i] = ScenarioResult{Scenario: sc, Outcome: out, Err: err}
		}()
	}
	wg.Wait()
	return results
}

// Scenarios builds a matrix sweep: every arrival shape × {1 node, 3 nodes}
// with mix, jobs arrivals each at rate per second. A non-empty shape or a
// non-zero nodes narrows the sweep to that shape or topology, and nem is the
// transport nemesis of the cluster cells. The full sweep with no nemesis
// keeps one flaky-transport cell, so its table always witnesses that
// transport faults leave the deterministic columns unchanged.
func Scenarios(shape Shape, mix MixSpec, nodes int, nem Nemesis, jobs int, rate float64) []Scenario {
	shapes := Shapes()
	if shape != "" {
		shapes = []Shape{shape}
	}
	topologies := []int{1, 3}
	if nodes != 0 {
		topologies = []int{nodes}
	}
	var scs []Scenario
	for _, sh := range shapes {
		for _, n := range topologies {
			cellNem := NemesisNone
			if n > 1 {
				cellNem = nem
			}
			name := fmt.Sprintf("%s/%s/n%d", sh, mix.Name, n)
			if cellNem != NemesisNone {
				name += "+" + string(cellNem)
			}
			scs = append(scs, Scenario{
				Name:    name,
				Arrival: ArrivalConfig{Shape: sh, Jobs: jobs, RatePerSec: rate},
				Mix:     mix,
				Nodes:   n,
				Nemesis: cellNem,
			})
		}
	}
	if shape == "" && nodes == 0 && nem == NemesisNone {
		scs = append(scs, Scenario{
			Name:    fmt.Sprintf("poisson/%s/n3+flaky", mix.Name),
			Arrival: ArrivalConfig{Shape: ShapePoisson, Jobs: jobs, RatePerSec: rate},
			Mix:     mix,
			Nodes:   3,
			Nemesis: NemesisFlaky,
		})
	}
	return scs
}

// RenderTable renders results as a fixed-width table. Only deterministic
// columns appear: two runs of the same matrix seed must render
// byte-identical tables (the wall-clock annex goes to RenderAnnex).
func RenderTable(results []ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-8s %-8s %5s %9s %9s %6s %8s %5s %16s  %s\n",
		"scenario", "shape", "mix", "nodes", "submitted", "completed", "failed", "rejected", "progs", "trace-fp", "core-fingerprint")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-24s ERROR %v\n", r.Scenario.Name, r.Err)
			continue
		}
		o := r.Outcome
		fmt.Fprintf(&b, "%-24s %-8s %-8s %5d %9d %9d %6d %8d %5d %16s  %s\n",
			r.Scenario.Name, o.Shape, o.Mix, o.Nodes, o.Submitted, o.Completed,
			o.Failed, o.Rejected, o.DistinctPrograms, o.TraceFingerprint, o.CoreFingerprint)
	}
	return b.String()
}

// RenderAnnex renders the measured (non-deterministic) columns: wall-clock
// throughput and latency. Kept separate so table-equality assertions never
// see it.
func RenderAnnex(results []ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %12s %9s %9s\n",
		"scenario", "elapsed", "jobs/sec", "p50", "p95")
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		o := r.Outcome
		fmt.Fprintf(&b, "%-24s %8dms %12.0f %7dus %7dus\n",
			r.Scenario.Name, o.ElapsedMS, o.ThroughputJPS, o.P50US, o.P95US)
	}
	return b.String()
}
