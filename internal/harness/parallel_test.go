package harness

import (
	"testing"

	"repro/internal/splash"
)

// twoBenches is a cheap two-benchmark subset so the sweep runs twice
// (sequential + parallel) without the full Table I cost.
var twoBenches = []string{"ocean", "volrend"}

// TestTableIParallelByteIdentical: the worker-pool sweep must render the
// exact bytes of the sequential sweep — parallelism may only change
// wall-clock time, never a single table cell.
func TestTableIParallelByteIdentical(t *testing.T) {
	seq := NewRunner()
	seqRep, err := seq.tableIReport(twoBenches)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}

	par := NewRunner()
	par.Workers = 4
	parRep, err := par.tableIReport(twoBenches)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}

	if s, p := seqRep.Render(), parRep.Render(); s != p {
		t.Fatalf("parallel Table I differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
	}
	if s, p := Fig14(seqRep).Render(), Fig14(parRep).Render(); s != p {
		t.Fatalf("parallel Figure 14 differs from sequential:\n%s\nvs\n%s", s, p)
	}
}

// TestTableIIParallelByteIdentical covers the Kendo chunk sweep path,
// including best-chunk tie-breaking, which must not depend on completion
// order.
func TestTableIIParallelByteIdentical(t *testing.T) {
	seq := NewRunner()
	seqRep, err := seq.tableIIReport(twoBenches)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}

	par := NewRunner()
	par.Workers = 4
	parRep, err := par.tableIIReport(twoBenches)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}

	if s, p := seqRep.Render(), parRep.Render(); s != p {
		t.Fatalf("parallel Table II differs from sequential:\n%s\nvs\n%s", s, p)
	}
	for i := range seqRep.Rows {
		if seqRep.Rows[i].KendoChunk != parRep.Rows[i].KendoChunk {
			t.Fatalf("%s: best chunk %d (parallel) != %d (sequential)",
				seqRep.Rows[i].Name, parRep.Rows[i].KendoChunk, seqRep.Rows[i].KendoChunk)
		}
	}
}

// TestOverheadRowMatchesTableI: the per-job overhead row the service exposes
// must agree with the corresponding Table I column cells.
func TestOverheadRowMatchesTableI(t *testing.T) {
	r := NewRunner()
	b, err := splash.New("volrend", r.Threads)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	row, err := r.OverheadRowFor(b, PresetByKey("all"))
	if err != nil {
		t.Fatalf("OverheadRowFor: %v", err)
	}
	col, err := r.TableIFor("volrend")
	if err != nil {
		t.Fatalf("TableIFor: %v", err)
	}
	if row.BaselineCycles != col.Baseline.Makespan {
		t.Fatalf("baseline cycles %d != %d", row.BaselineCycles, col.Baseline.Makespan)
	}
	if row.ClocksPct != col.ClocksPct["all"] || row.DetPct != col.DetPct["all"] {
		t.Fatalf("overheads (%.2f, %.2f) != (%.2f, %.2f)",
			row.ClocksPct, row.DetPct, col.ClocksPct["all"], col.DetPct["all"])
	}
	if row.Clockable != col.Clockable {
		t.Fatalf("clockable %d != %d", row.Clockable, col.Clockable)
	}
}

// TestTablesShareModules: every table resolves its benchmarks through
// benchFor, so on one Runner Table II's DetLock cell finds the clone Table I
// instrumented for the same module instead of building a module of its own.
func TestTablesShareModules(t *testing.T) {
	r := NewRunner()
	if _, err := r.tableIReport([]string{"volrend"}); err != nil {
		t.Fatal(err)
	}
	benches, clones := len(r.cache.bench), len(r.cache.inst)
	if _, err := r.tableIIReport([]string{"volrend"}); err != nil {
		t.Fatal(err)
	}
	if len(r.cache.bench) != benches || len(r.cache.inst) != clones {
		t.Fatalf("Table II built its own inputs: %d → %d benchmarks, %d → %d instrumented clones",
			benches, len(r.cache.bench), clones, len(r.cache.inst))
	}
}
