package harness

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/splash"
	"repro/internal/trace"
)

// The detector's Reference mode only disables the same-epoch shortcut: both
// modes share one shadow-cell representation, so TestEquivalenceRaceReports
// cannot see a bug in it. testdata/race_reports.golden therefore pins the
// trace.FormatRace bytes of every report (and the suppressed count) for the
// five splash programs with the race probe injected and for raceMixSrc below,
// and TestRaceReportsGolden requires both detector modes, at JitterSeed 0 and
// 1…20, to reproduce them byte for byte.
//
// The file is never regenerated from the code under test. It was written at
// 9ee4c0e, the parent of the PR that rebuilt the shadow state. After a change
// of the report format that is meant, check out the commit whose reports are
// the reference, copy this file there, and run
//
//	RACE_GOLDEN_OUT=$PWD/internal/harness/testdata/race_reports.golden go test -run TestRaceReportsGolden ./internal/harness/
//
// which writes the file (after checking that every mode and seed agrees)
// instead of comparing against it.

const (
	raceGoldenFile  = "testdata/race_reports.golden"
	raceGoldenSeeds = 20
)

// raceMixSrc races in the ways the probe (two first-epoch stores, empty
// locksets) does not: disjoint non-empty locksets, a write against a list of
// concurrent reads (canonical pair: the lowest reader), and post-barrier
// clocks with a two-lock set. Every racing pair is either symmetric in arrival
// order or separated by a spin far longer than the jitter amplitude, so the
// reports depend only on the deterministic synchronization order.
const raceMixSrc = `
module racemix
global g 16
locks 2
barriers 1

func main() regs 12 {
entry:
  r0 = tid
  r1 = and r0, 1
  r2 = load g[0]
  lock r1
  r3 = add r1, 1
  r4 = load g[r3]
  r4 = add r4, r0
  store g[r3], r4
  r5 = lt r0, 2
  br r5, cross, held
cross:
  store g[4], r0
  jmp held
held:
  unlock r1
  r6 = eq r0, 3
  br r6, late, sync
late:
  r7 = const 0
  jmp spin
spin:
  r7 = add r7, 1
  r8 = lt r7, 4000
  br r8, spin, latew
latew:
  store g[0], r0
  jmp sync
sync:
  barrier 0
  r9 = eq r0, 1
  br r9, both, after
both:
  lock 0
  lock 1
  store g[7], r0
  unlock 1
  unlock 0
  jmp after
after:
  r10 = eq r0, 2
  br r10, peek, done
peek:
  r11 = load g[7]
  jmp done
done:
  ret r0
}
`

// raceGoldenPrograms returns the pinned programs in file order.
func raceGoldenPrograms(t *testing.T) []*splash.Benchmark {
	t.Helper()
	var progs []*splash.Benchmark
	for _, name := range splash.Names() {
		b, err := splash.New(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		b.Module = b.Module.Clone()
		if _, err := splash.InjectRaceProbe(b.Module, b.Entry); err != nil {
			t.Fatal(err)
		}
		progs = append(progs, b)
	}
	return append(progs, &splash.Benchmark{
		Name: "racemix", Module: ir.MustParse(raceMixSrc), Threads: 4, Entry: "main",
	})
}

// raceReportRun runs b under the report-all policy and returns the machine.
func raceReportRun(t *testing.T, b *splash.Benchmark, ref bool, jitter int64) *interp.Machine {
	t.Helper()
	mach, threads, err := interp.NewMachine(interp.Config{
		Module:     b.Module,
		Threads:    b.Threads,
		Entry:      b.Entry,
		Race:       &interp.RaceConfig{Policy: interp.RaceReport, Reference: ref},
		Reference:  ref,
		JitterSeed: jitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(sim.Config{
		Policy:      sim.PolicyDet,
		NumLocks:    b.Module.NumLocks,
		NumBarriers: b.Module.NumBars,
		Observer:    mach.Observer(),
		Reference:   ref,
	}, interp.Programs(threads))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return mach
}

// raceGoldenSection formats one program's reports the way the file holds them.
func raceGoldenSection(name string, mach *interp.Machine) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %d report(s), %d suppressed\n", name, len(mach.Races()), mach.RacesSuppressed())
	for _, re := range mach.Races() {
		buf.WriteString(trace.FormatRace(re))
	}
	return buf.Bytes()
}

func TestRaceReportsGolden(t *testing.T) {
	seeds := int64(raceGoldenSeeds)
	if testing.Short() {
		seeds = 2
	}
	progs := raceGoldenPrograms(t)
	sections := make([][]byte, len(progs))
	t.Run("programs", func(t *testing.T) {
		for i, b := range progs {
			i, b := i, b
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				want := raceGoldenSection(b.Name, raceReportRun(t, b, true, 0))
				if bytes.Count(want, []byte("DATA RACE")) == 0 {
					t.Fatal("no reports on the reference path")
				}
				for seed := int64(0); seed <= seeds; seed++ {
					for _, ref := range []bool{true, false} {
						if got := raceGoldenSection(b.Name, raceReportRun(t, b, ref, seed)); !bytes.Equal(got, want) {
							t.Fatalf("Reference=%v JitterSeed=%d differs from Reference=true JitterSeed=0\ngot:\n%s\nwant:\n%s", ref, seed, got, want)
						}
					}
				}
				sections[i] = want
			})
		}
	})
	if t.Failed() {
		return
	}
	got := bytes.Join(sections, nil)
	if out := os.Getenv("RACE_GOLDEN_OUT"); out != "" {
		if err := os.WriteFile(out, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), out)
		return
	}
	want, err := os.ReadFile(raceGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("race reports differ from %s (pinned at the parent of PR 16; never regenerate it from this code)\ngot:\n%s\nwant:\n%s", raceGoldenFile, got, want)
	}
}
