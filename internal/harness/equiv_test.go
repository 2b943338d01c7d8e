package harness

// The PR-4 keystone: the optimized hot loops (decoded-dispatch interpreter,
// heap scheduler, epoch fast-path race detector) must be *byte-identical*
// in behavior to the reference implementations they replace — same
// schedules, same cycle tables, same race reports — while being at least
// twice as fast on the full evaluation sweep. These tests are the proof.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/splash"
)

// equivSeeds is the seed sweep width of the property test.
const equivSeeds = 20

// equivConfig derives one (optset, mode, race, chunk) cell from a seed so
// the sweep covers every preset × every lock policy/mode combination across
// the 20 seeds.
func equivConfig(seed int) (optKey string, mode Mode, race bool, chunk int64) {
	keys := PresetKeys()
	optKey = keys[seed%len(keys)]
	switch seed % 3 {
	case 0:
		mode = ModeClocksOnly
	case 1:
		mode = ModeDet
	default:
		mode = ModeKendo
	}
	// The detector only arms on deterministic runs; alternating exercises
	// both the detector-on and detector-off interpreter paths.
	race = seed%2 == 0
	chunk = []int64{250, 1000, 4000}[seed%3]
	return
}

// TestEquivalenceProperty runs every splash workload × 20 seeds, each seed
// selecting an optimization preset, an execution mode (FCFS clocks-only,
// DetLock, Kendo), a race-check setting, and a physical-timing jitter seed —
// then executes the cell on the reference and optimized paths and requires
// the complete RunResult (makespan, waits, acquisitions, clock updates,
// interrupts, instruction counts, engine steps, and the full acquisition
// trace) to match exactly.
func TestEquivalenceProperty(t *testing.T) {
	seeds := equivSeeds
	if testing.Short() {
		seeds = 5
	}
	for _, name := range splash.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := 1; seed <= seeds; seed++ {
				optKey, mode, race, chunk := equivConfig(seed)
				runPair := func(ref bool) (*RunResult, error) {
					r := NewRunner()
					r.RecordTraces = true
					r.RaceCheck = race
					r.Reference = ref
					r.JitterSeed = int64(seed)
					b, err := splash.New(name, r.Threads)
					if err != nil {
						return nil, err
					}
					return r.Run(b, PresetByKey(optKey), mode, chunk)
				}
				want, err := runPair(true)
				if err != nil {
					t.Fatalf("seed %d (%s, mode %d): reference: %v", seed, optKey, mode, err)
				}
				got, err := runPair(false)
				if err != nil {
					t.Fatalf("seed %d (%s, mode %d): optimized: %v", seed, optKey, mode, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d (%s, mode %d, race %v): optimized diverges from reference\nref: %+v\nopt: %+v",
						seed, optKey, mode, race, stripTrace(want), stripTrace(got))
					diffTraces(t, want.Trace, got.Trace)
				}
			}
		})
	}
}

// stripTrace summarizes a result for failure messages (traces are huge).
func stripTrace(r *RunResult) RunResult {
	c := *r
	c.Trace = c.Trace[:min(len(c.Trace), 0)]
	return c
}

func diffTraces(t *testing.T, want, got []sim.Acquisition) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("trace length: ref %d opt %d", len(want), len(got))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("trace[%d]: ref %+v opt %+v", i, want[i], got[i])
			return
		}
	}
}

// TestEquivalenceTableBytes renders the full Table I report on both paths
// and compares the strings: the rendered overhead table — the repo's
// primary artifact — must not change by a byte.
func TestEquivalenceTableBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I sweep ×2 in -short mode")
	}
	render := func(ref bool) string {
		r := NewRunner()
		r.Reference = ref
		rep, err := r.TableI()
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		return rep.Render()
	}
	want := render(true)
	got := render(false)
	if got != want {
		t.Errorf("Table I render differs between reference and optimized paths\nref:\n%s\nopt:\n%s", want, got)
	}
}

// TestEquivalenceRaceReports injects the deterministic race probe into every
// workload, collects reports on both paths under the report-all policy, and
// compares the formatted report bytes: the epoch fast path must not change
// any race report.
func TestEquivalenceRaceReports(t *testing.T) {
	for _, b := range raceGoldenPrograms(t)[:len(splash.Names())] {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			reports := func(ref bool) []string {
				mach := raceReportRun(t, b, ref, 0)
				var out []string
				for _, re := range mach.Races() {
					out = append(out, re.Error())
				}
				if mach.RacesSuppressed() > 0 {
					out = append(out, fmt.Sprintf("suppressed: %d", mach.RacesSuppressed()))
				}
				return out
			}
			want := reports(true)
			got := reports(false)
			if len(want) == 0 {
				t.Fatalf("race probe produced no reports on the reference path")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("race reports differ\nref: %q\nopt: %q", want, got)
			}
		})
	}
}

// TestSweepSpeedup guards against the optimized paths being wired out: they
// must still run the full Table I + Table II sweep at least twice as fast as
// the reference implementation. Speed claims belong to bench/ (BENCHMARK.json);
// this is a wall-clock ratio inside tier-1, so it is taken the way that keeps
// a busy neighbour from failing unchanged code.
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock speedup measurement in -short mode")
	}
	// One runner per side, the sides alternating rep by rep so that a noisy
	// stretch falls on both, best of 3 each: reps after the first run with
	// warm preparation caches, so the best reflects the steady-state hot
	// loops rather than one-time cache fills and allocator noise. Noise only
	// ever adds time, so a ratio short of the bar earns up to 5 more reps
	// (`go test ./...` runs other packages' tests beside this one) before it
	// counts as a failure.
	ref, opt := NewRunner(), NewRunner()
	ref.Reference = true
	secs := map[bool][]float64{} // by Runner.Reference
	speedup := 0.0
	for rep := 0; rep < 8 && (rep < 3 || speedup < 2); rep++ {
		for _, r := range []*Runner{ref, opt} {
			s, err := r.SweepSeconds()
			if err != nil {
				t.Fatal(err)
			}
			secs[r.Reference] = append(secs[r.Reference], s)
		}
		speedup = slices.Min(secs[true]) / slices.Min(secs[false])
	}
	t.Logf("sweep speedup %.2fx on the best of: reference %.2f s, optimized %.2f s", speedup, secs[true], secs[false])
	if speedup < 2 {
		t.Errorf("sweep speedup %.2fx < 2x", speedup)
	}
}
