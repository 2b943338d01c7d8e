package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json, the contract the driver reads and the
// only list of the workloads and metrics: the command runs and prints what
// it names, later issues cite its names verbatim, and README.md says what
// each measures.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × metric pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one end-to-end metric. B is worse when its
// median is beyond the bound on the bad side of A's. A pair that is not
// worse but whose quartile spread, on either side, exceeds the bound is
// unresolved: the runs cannot show it unchanged.
func verdict(d metricDef, a, b summary) (ratio float64, v string) {
	if a.Median == 0 {
		return 0, verdictUnresolved
	}
	ratio = b.Median / a.Median
	worse := ratio > 1+d.Bound
	if d.Better == higher {
		worse = ratio < 1-d.Bound
	}
	switch {
	case worse:
		return ratio, verdictWorse
	case a.spread() > d.Bound || b.spread() > d.Bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

// compareFiles prints one row per workload × metric of two -out files and
// reports whether no end-to-end metric of B is worse than its bound allows.
func compareFiles(w io.Writer, bf *benchmarkFile, pathA, pathB string) (bool, error) {
	var a, b fileReport
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "A = %s (%d runs from seed %d), B = %s (%d runs from seed %d); ratio is B/A, base A\n",
		pathA, a.Runs, a.Seed, pathB, b.Runs, b.Seed)
	fmt.Fprintf(w, "%-9s %-26s %-6s %12s %22s %12s %22s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "ratio", "bound", "verdict")
	for _, wd := range bf.Workloads {
		ma, mb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ma == nil || mb == nil {
			continue
		}
		row := func(name, unit string, bound string, ratio float64, v string) {
			sa, sb := ma[name], mb[name]
			fmt.Fprintf(w, "%-9s %-26s %-6s %12.4f %22s %12.4f %22s %7.3f %6s  %s\n", wd.Name, name, unit,
				sa.Median, fmt.Sprintf("%.4g..%.4g", sa.Q1, sa.Q3), sb.Median, fmt.Sprintf("%.4g..%.4g", sb.Q1, sb.Q3), ratio, bound, v)
		}
		for _, d := range bf.EndToEnd {
			sa, inA := ma[d.Name]
			sb, inB := mb[d.Name]
			if !inA || !inB {
				continue
			}
			ratio, v := verdict(d, sa, sb)
			if v == verdictWorse {
				ok = false
			}
			row(d.Name, d.Unit, fmt.Sprintf("%.0f%%", d.Bound*100), ratio, v)
		}
		// Per-layer metrics have no bound: they are shown, not judged.
		for _, d := range bf.PerLayer {
			sa, inA := ma[d.Name]
			sb, inB := mb[d.Name]
			if !inA || !inB {
				continue
			}
			ratio := 0.0
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			row(d.Name, d.Unit, "-", ratio, "")
		}
	}
	return ok, nil
}
