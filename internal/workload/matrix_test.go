package workload

import (
	"context"
	"strings"
	"testing"
)

func liteScenarios(jobs int) []Scenario {
	var scs []Scenario
	for _, shape := range []Shape{ShapePoisson, ShapeBursty, ShapeClosed} {
		for _, nodes := range []int{1, 3} {
			scs = append(scs, Scenario{
				Name:    string(shape) + "/n" + map[int]string{1: "1", 3: "3"}[nodes],
				Arrival: ArrivalConfig{Shape: shape, Jobs: jobs, RatePerSec: 5000},
				Mix:     liteMix(),
				Nodes:   nodes,
			})
		}
	}
	scs = append(scs, Scenario{
		Name:    "poisson/n3+flaky",
		Arrival: ArrivalConfig{Shape: ShapePoisson, Jobs: jobs, RatePerSec: 5000},
		Mix:     liteMix(),
		Nodes:   3,
		Nemesis: NemesisFlaky,
	})
	return scs
}

// TestMatrixDeterministicTables is the headline acceptance criterion: two
// runs of the same scenario-matrix seed produce byte-identical result
// tables, including with a parallel worker pool (results merge in scenario
// index order, so parallelism never reorders the table).
func TestMatrixDeterministicTables(t *testing.T) {
	render := func(parallel int) string {
		results := RunMatrix(context.Background(), MatrixConfig{
			Seed:      909,
			Scenarios: liteScenarios(30),
			Parallel:  parallel,
		})
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Scenario.Name, r.Err)
			}
		}
		return RenderTable(results)
	}
	a := render(1)
	b := render(1)
	c := render(4)
	if a != b {
		t.Fatalf("same-seed serial tables differ:\n--- A ---\n%s--- B ---\n%s", a, b)
	}
	if a != c {
		t.Fatalf("parallel table differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", a, c)
	}
	if strings.Contains(a, "ERROR") {
		t.Fatalf("table contains errors:\n%s", a)
	}
	// Every scenario row reports zero loss.
	if !strings.Contains(a, "poisson/n3+flaky") {
		t.Fatalf("nemesis scenario missing:\n%s", a)
	}
}

// TestMatrixScenarioIndependence: each scenario derives its streams from the
// matrix seed XOR its index, so reordering or removing other scenarios must
// not change a scenario's outcome — only its own cell position matters.
func TestMatrixScenarioIndependence(t *testing.T) {
	scs := liteScenarios(25)
	full := RunMatrix(context.Background(), MatrixConfig{Seed: 31, Scenarios: scs})
	// Rerun only scenario 3 by padding with earlier scenarios intact.
	partial := RunMatrix(context.Background(), MatrixConfig{Seed: 31, Scenarios: scs[:4]})
	if full[3].Err != nil || partial[3].Err != nil {
		t.Fatalf("errs: %v / %v", full[3].Err, partial[3].Err)
	}
	if full[3].Outcome.CoreFingerprint != partial[3].Outcome.CoreFingerprint ||
		full[3].Outcome.TraceFingerprint != partial[3].Outcome.TraceFingerprint {
		t.Fatal("scenario outcome depends on scenarios after it in the sweep")
	}
}

func TestDefaultScenariosCoverMatrix(t *testing.T) {
	blend, err := MixByName("blend")
	if err != nil {
		t.Fatal(err)
	}
	scs := Scenarios("", blend, 0, NemesisNone, 100, 2000)
	if len(scs) != len(Shapes())*2+1 {
		t.Fatalf("got %d scenarios, want %d", len(scs), len(Shapes())*2+1)
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Arrival.Jobs != 100 {
			t.Fatalf("%s: jobs = %d", sc.Name, sc.Arrival.Jobs)
		}
	}
	if !seen["poisson/blend/n3+flaky"] {
		t.Fatal("flaky-transport cell missing from default sweep")
	}
}
