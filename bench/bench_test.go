package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
)

func streamBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	s, err := buildStream(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	a, b := streamBytes(t, "hot_http", 1), streamBytes(t, "hot_http", 1)
	if !bytes.Equal(a, b) {
		t.Error("two builds of the same seed differ")
	}
	if bytes.Equal(a, streamBytes(t, "hot_http", 2)) {
		t.Error("seeds 1 and 2 build the same stream")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of three = %v", m)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("one sample: %v %v %v", q1, med, q3)
	}
	s := summarize("ms", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := s.spread(); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 of four = %v", got)
	}
}

func TestNominalScalesTimesAndRatesOnly(t *testing.T) {
	// A host at half the nominal speed: its seconds count half, its rates double.
	for _, c := range []struct {
		unit string
		want float64
	}{{"s", 5}, {"ms", 5}, {"1/s", 20}, {"1e6/s", 20}, {"kB", 10}, {"count", 10}} {
		if got := nominal(c.unit, 10, 0.5); got != c.want {
			t.Errorf("nominal(%q, 10, 0.5) = %v, want %v", c.unit, got, c.want)
		}
	}
}

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Job: 0, Layer: "service.do_miss", Parent: -1, Start: 0, End: 1000},
		{ID: 1, Job: 0, Layer: "ir.parse", Parent: 0, Start: 2000, End: 2300},
		{ID: 2, Job: 0, Layer: "sim.run", Parent: 0, Start: 2300, End: 2800},
		{ID: 3, Job: 0, Layer: "interp.step", Parent: 2, Start: 2400, End: 2500},
		{ID: 4, Job: 1, Layer: "service.do_miss", Parent: -1, Start: 3000, End: 3100},
		{ID: 5, Job: 1, Layer: "sim.run", Parent: 4, Start: 3200, End: 3500},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 200, 1: 300, 2: 400, 3: 100, 4: 0, 5: 300} // span 4 is shorter than its replayed child
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func readContract(t *testing.T) *benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

func TestCompareVerdicts(t *testing.T) {
	bf := readContract(t)
	dir := t.TempDir()
	write := func(name string, jobs, p50 summary) string {
		path := filepath.Join(dir, name)
		rep := fileReport{Seed: 1, Seconds: 10, Workloads: map[string]map[string]summary{
			"cold": {"jobs_per_s": jobs, "p50_ms": p50, "ir.parse_us": {Unit: "us", N: 3, Median: 40, Q1: 39, Q3: 41}},
		}}
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tight := func(unit string, m float64) summary {
		return summary{Unit: unit, N: 10, Median: m, Q1: m * 0.99, Q3: m * 1.01}
	}
	base := write("a.json", tight("1/s", 2000), tight("ms", 0.30))
	jobs, _ := findMetric(bf.EndToEnd, "jobs_per_s")
	p50, _ := findMetric(bf.EndToEnd, "p50_ms")

	cases := []struct {
		name      string
		jobs, p50 summary
		ok        bool
		verdicts  []string
	}{
		{"same", tight("1/s", 2000), tight("ms", 0.30), true, []string{verdictOK, verdictOK}},
		{"faster", tight("1/s", 2600), tight("ms", 0.20), true, []string{verdictOK, verdictOK}},
		{"slower", tight("1/s", 2000*(1-jobs.Bound)-1), tight("ms", 0.30), false, []string{verdictWorse, verdictOK}},
		{"latency", tight("1/s", 2000), tight("ms", 0.30*(1+p50.Bound)+0.01), false, []string{verdictOK, verdictWorse}},
		{"noisy", summary{Unit: "1/s", N: 10, Median: 1990, Q1: 1500, Q3: 2500}, tight("ms", 0.30), true, []string{verdictUnresolved, verdictOK}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ok, err := compareFiles(&out, bf, base, write(c.name+".json", c.jobs, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "cold" && (f[1] == "jobs_per_s" || f[1] == "p50_ms") {
				got = append(got, f[len(f)-1])
			}
		}
		if strings.Join(got, ",") != strings.Join(c.verdicts, ",") {
			t.Errorf("%s: verdicts %v, want %v\n%s", c.name, got, c.verdicts, out.String())
		}
		if !strings.Contains(out.String(), "ir.parse_us") {
			t.Errorf("%s: per-layer row missing", c.name)
		}
	}
}

// TestBenchmarkJSON checks that the contract file stays inside the limits
// the driver enforces, that every workload it names can be generated, and
// that the result line carries exactly the metrics it names. That each
// named metric is measured is checked by every run (result.take).
func TestBenchmarkJSON(t *testing.T) {
	t.Parallel() // with the golden test: the two are the slow ones
	bf := readContract(t)
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" || strings.Join(bf.Paths, " ") != "bench" {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
		if _, err := prepare(nil, w.Name, 1); err != nil {
			t.Errorf("the command cannot prepare workload %s: %v", w.Name, err)
		}
	}
	for _, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
		for _, d := range defs {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, d := range bf.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if d, ok := findMetric(bf.EndToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != lower {
		t.Errorf("setup_s missing or malformed: %+v", d)
	}

	// The driver's result line carries every metric of the pass, no other.
	r := &result{name: "cold", attempted: 1, metrics: map[string]summary{}}
	for _, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		out, err := r.driverLine(defs)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(out), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("%d metrics printed, %d defined", len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == nil {
				t.Errorf("%s missing or without unit", d.Name)
			}
		}
	}
}

// The committed goldens are what the reference implementations render; the
// sweep workload checks the optimized render against the same files.
func TestGoldenIsReferenceRender(t *testing.T) {
	t.Parallel()
	ref := harness.NewRunner()
	ref.Reference = true
	t1, t2, err := renderTables(ref)
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{"table1.txt": t1, "table2.txt": t2} {
		want, err := golden.ReadFile("golden/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("reference render of %s differs from the golden", file)
		}
	}
}

func TestModelDiskCountsSyncsAndWritesThrough(t *testing.T) {
	var d modelDisk
	path := filepath.Join(t.TempDir(), "log")
	f, err := d.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("rec\n")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile(path)
	if err != nil || string(got) != "rec\nrec\nrec\n" {
		t.Errorf("file holds %q, %v", got, err)
	}
	if n := d.syncs.Load(); n != 3 {
		t.Errorf("%d syncs counted, want 3", n)
	}
}
