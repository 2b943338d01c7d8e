// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the system sees, and a per-layer budget
// measured from outside the program. README.md describes all of it.
//
//	bash bench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -out A.json             # every workload, both passes
//	bash bench/run.sh -compare A.json B.json  # verdict per workload × metric
//
// With --workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics, as BENCHMARK.json's
// driver expects; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadF = fs.String("workload", "", "run one workload and print the driver's result line (default: all, as a table)")
		seed      = fs.Int64("seed", 1, "the job streams are a pure function of this")
		seconds   = fs.Float64("seconds", 10, "how long each workload's timed phase measures")
		traceF    = fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 the per-layer metrics of a traced pass")
		runs      = fs.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...; metrics then summarize runs")
		out       = fs.String("out", "", "write every metric's median, quartiles and sample count here as JSON")
		traceOut  = fs.String("trace-out", "", "write the traced pass's spans here as JSON")
		compareF  = fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		root      = fs.String("root", ".", "the repository checkout, where BENCHMARK.json is")
		detserve  = fs.String("detserve", "", "the detserve binary built from -root (run.sh builds and passes it)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rootDir, err := filepath.Abs(*root)
	if err != nil {
		return fail(err)
	}
	var bf benchmarkFile
	if err := readJSON(filepath.Join(rootDir, "BENCHMARK.json"), &bf); err != nil {
		return fail(fmt.Errorf("-root: %w", err))
	}
	if *compareF {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(stdout, &bf, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *seconds <= 0 || (*traceF != 0 && *traceF != 1) || *runs < 1 || (*runs > 1 && *workloadF != "") {
		return fail(fmt.Errorf("-seconds must be positive, -trace 0 or 1, -runs at least 1 and only without -workload"))
	}
	names := []string{*workloadF}
	all := *workloadF == "" // every workload, both passes, as tables
	if all {
		names = nil
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}

	if !isFile(*detserve) {
		return fail(fmt.Errorf("-detserve %q is not a file; bench/run.sh builds ./cmd/detserve and passes it", *detserve))
	}
	e, cleanup, err := newEnv(rootDir, &bf, *detserve, stderr)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.stopChildren()
		cleanup()
		os.Exit(130)
	}()

	rec := newRecorder()
	report := fileReport{Seed: *seed, Seconds: *seconds, Runs: *runs, Workloads: map[string]map[string]summary{}}
	code := 0
	for _, name := range names {
		res, err := runWorkload(e, name, *seed, *seconds, all || *traceF == 0, all || *traceF == 1, rec)
		if err != nil {
			return fail(err)
		}
		// Further runs, each on the next seed, turn every end-to-end metric
		// into a set of run values, as the driver collects them: the summary
		// is then over runs, not over one run's rounds.
		for r := 1; r < *runs; r++ {
			again, err := runWorkload(e, name, *seed+int64(r), *seconds, true, false, rec)
			if err != nil {
				return fail(err)
			}
			res.attempted += again.attempted
			res.failed += again.failed
			for _, d := range bf.EndToEnd {
				if r == 1 {
					res.values[d.Name] = []float64{res.metrics[d.Name].Median}
				}
				res.values[d.Name] = append(res.values[d.Name], again.metrics[d.Name].Median)
				res.metrics[d.Name] = summarize(d.Unit, res.values[d.Name])
			}
		}
		report.Workloads[name] = res.metrics
		if !res.correct() {
			code = 1
		}
		if all {
			res.printTable(stdout, &bf)
		} else {
			defs := bf.EndToEnd
			if *traceF == 1 {
				defs = bf.PerLayer
			}
			line, err := res.driverLine(defs)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, report); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, rec.spans); err != nil {
			return fail(err)
		}
	}
	return code
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// newEnv makes the scratch directory: inside the checkout, under the
// git-ignored .bench_build, so journals are fsynced on the checkout's
// filesystem and nothing is written outside it.
func newEnv(root string, bf *benchmarkFile, detserve string, log io.Writer) (*env, func(), error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{tmp: tmp, bf: bf, detserve: detserve, log: log, children: map[*child]bool{}}
	return e, func() { os.RemoveAll(tmp) }, nil
}

// fileReport is the -out file: what -compare reads.
type fileReport struct {
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Runs      int                           `json:"runs"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// result is one workload's outcome: end-to-end metrics from the untraced
// pass, per-layer metrics from the traced one.
type result struct {
	name              string
	attempted, failed int
	metrics           map[string]summary
	values            map[string][]float64 // with -runs: each run's value of an end-to-end metric
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runWorkload prepares one workload and runs the passes asked for. The
// end-to-end numbers always come from a pass without tracing.
func runWorkload(e *env, name string, seed int64, seconds float64, untraced, traced bool, rec *recorder) (*result, error) {
	e.logf("%s: generating inputs and oracle (seed %d)", name, seed)
	p, err := prepare(e, name, seed)
	if err != nil {
		return nil, err
	}
	res := &result{name: name, metrics: map[string]summary{}, values: map[string][]float64{}}
	if untraced {
		e.logf("%s: untraced pass, %.0f s", name, seconds)
		m, err := measure(p, e.bf.EndToEnd, seconds)
		if err != nil {
			return nil, err
		}
		e.logf("%s: host ran at %.3f of the nominal machine's speed; times are in nominal seconds", name, m.hostSpeed)
		res.attempted, res.failed = m.attempted, m.failed
		if err := res.take(e.bf.EndToEnd, m); err != nil {
			return nil, err
		}
	}
	if traced {
		e.logf("%s: traced pass", name)
		t, err := tracedPass(e, p, seconds, rec)
		if err != nil {
			return nil, err
		}
		res.attempted += t.attempted
		res.failed += t.failed
		if err := res.take(e.bf.PerLayer, t); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// take summarizes a pass's samples of the metrics BENCHMARK.json names for
// it. A name the pass has no sample of is one the command does not measure.
func (r *result) take(defs []metricDef, m *measured) error {
	for _, d := range defs {
		if len(m.samples[d.Name]) == 0 {
			return fmt.Errorf("%s: BENCHMARK.json names %s, which was not measured", r.name, d.Name)
		}
		r.metrics[d.Name] = summarize(d.Unit, m.samples[d.Name])
	}
	return nil
}

// driverLine is the one-line JSON result BENCHMARK.json's driver reads.
func (r *result) driverLine(defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{r.metrics[d.Name].Median, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return "", fmt.Errorf("%s: a metric is not a number: %w", r.name, err)
	}
	return string(b), nil
}

func (r *result) printTable(w io.Writer, bf *benchmarkFile) {
	fmt.Fprintf(w, "\n%s: %d jobs attempted, %d failed (fail_share %.4f)\n", r.name, r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
	fmt.Fprintf(w, "  %-28s %14s %-6s %14s %14s %6s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
		for _, d := range defs {
			if s, ok := r.metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.4f %-6s %14.4f %14.4f %6d\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
}
