package interp

// Hot-loop benchmarks for the decoded-dispatch interpreter and the race
// detector, plus the allocation guard for the detector's slab-owned shadow
// state. `make bench` runs these alongside the sim and top-level suites;
// BENCH_PR4.json records the PR 4 numbers, EXPERIMENTS.md every later one.
// The dispatch benchmark runs two bodies: the same-register add runs that
// make up most of what the sweep executes (padSrc, one dAddRun dispatch
// per run) and cross-register add chains (chainSrc, one dispatch per add).

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
)

// chainSrc is a loop of cross-register add chains with a little logic
// sprinkled in: every add reads another add's result, so none folds.
const chainSrc = `
module dispatch
global out 1

func main() regs 16 {
entry:
  r0 = const 0
  r1 = const 0
  jmp loop
loop:
  r2 = lt r0, 20000
  br r2, body, done
body:
  r1 = add r1, r0
  r3 = add r1, 7
  r4 = add r3, r0
  r5 = add r4, r1
  r6 = add r5, 3
  r1 = add r6, r1
  r1 = and r1, 1048575
  r0 = add r0, 1
  jmp loop
done:
  store out[0], r1
  ret r1
}
`

// padSrc is the SPLASH models' compute padding (splash.padBlock): a loop
// whose body is a 150-add run on one register, the immediates padBlock
// emits, and a loop counter.
var padSrc = func() string {
	var b strings.Builder
	b.WriteString("module pad\nglobal out 1\n\nfunc main() regs 4 {\nentry:\n  r0 = const 0\n  jmp loop\nloop:\n  r2 = lt r0, 1500\n  br r2, body, done\nbody:\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "  r1 = add r1, %d\n", i|1)
	}
	b.WriteString("  r0 = add r0, 1\n  jmp loop\ndone:\n  store out[0], r1\n  ret r1\n}\n")
	return b.String()
}()

// raceSrc keeps four threads loading and storing thread-private words of a
// shared global: every access goes through the detector, none races, so the
// benchmark isolates detection overhead rather than report construction.
const raceSrc = `
module racebench
global data 8

func main() regs 16 {
entry:
  r0 = tid
  r1 = const 0
  jmp loop
loop:
  r2 = lt r1, 2000
  br r2, body, done
body:
  r3 = load data[r0]
  r3 = add r3, r1
  store data[r0], r3
  r1 = add r1, 1
  jmp loop
done:
  ret r1
}
`

// benchRun executes one machine to completion and returns it.
func benchRun(b *testing.B, m *ir.Module, threads int, mode ClockMode, ref bool, race *RaceConfig) *Machine {
	b.Helper()
	mach, ths, err := NewMachine(Config{
		Module:    m,
		Threads:   threads,
		Entry:     "main",
		Mode:      mode,
		Reference: ref,
		Race:      race,
	})
	if err != nil {
		b.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{
		Policy:      sim.PolicyDet,
		NumLocks:    m.NumLocks,
		NumBarriers: m.NumBars,
		Observer:    mach.Observer(),
		Reference:   ref,
	}, Programs(ths))
	if _, err := eng.Run(); err != nil {
		b.Fatalf("engine: %v", err)
	}
	return mach
}

// BenchmarkInterpDispatch compares the reference tree-walking step loop with
// the decoded dispatch loop on each body (pad/, chains/); the MIPS metric is
// the one BENCH_PR4.json commits. The kendo/ pairs run the same streams under
// Kendo's clock (default chunk), where every instruction also accrues on the
// counter: Table II's Kendo cells.
func BenchmarkInterpDispatch(b *testing.B) {
	for _, body := range []struct{ name, src string }{{"pad", padSrc}, {"chains", chainSrc}} {
		m := ir.MustParse(body.src)
		for _, mode := range []ClockMode{ModeDetLock, ModeKendo} {
			for _, ref := range []bool{true, false} {
				name := "decoded"
				if ref {
					name = "reference"
				}
				if mode == ModeKendo {
					name = "kendo/" + name
				}
				b.Run(body.name+"/"+name, func(b *testing.B) {
					var instrs int64
					for i := 0; i < b.N; i++ {
						instrs += benchRun(b, m, 1, mode, ref, nil).InstrsExecuted
					}
					b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
				})
			}
		}
	}
}

// BenchmarkRaceDetectorOn/Off measure the per-access cost of the armed
// detector (epoch fast path included) against the same run with detection
// disabled.
func BenchmarkRaceDetectorOn(b *testing.B) {
	m := ir.MustParse(raceSrc)
	for i := 0; i < b.N; i++ {
		mach := benchRun(b, m, 4, ModeDetLock, false, &RaceConfig{Policy: RaceReport})
		if n := len(mach.Races()); n != 0 {
			b.Fatalf("unexpected races: %d", n)
		}
	}
}

func BenchmarkRaceDetectorOff(b *testing.B) {
	m := ir.MustParse(raceSrc)
	for i := 0; i < b.N; i++ {
		benchRun(b, m, 4, ModeDetLock, false, nil)
	}
}

// TestRaceDetectorSteadyStateAllocs pins the detector's slab ownership: after
// a warm round has carved the read lists (and poisoned the deliberately racy
// cells), further accesses — same-epoch refreshes, foreign-write rewrites, and
// read-slot churn across truncating writes — store two pointers and allocate
// nothing, and a new sync epoch (each thread takes and drops a lock between
// its rounds) costs one slab-carved snapshot per thread, not a vector-clock
// copy per touched cell: the few doubling slab chunks round to zero per
// pattern.
func TestRaceDetectorSteadyStateAllocs(t *testing.T) {
	m := ir.MustParse(raceSrc)
	d := newRaceDetector(RaceConfig{Policy: RaceReport}, m, 4)
	fn := m.Func("main")
	load := &raceSite{sym: "data", fn: fn, block: fn.Blocks[2], pc: 0}
	store := &raceSite{sym: "data", fn: fn, block: fn.Blocks[2], pc: 2}
	pattern := func() {
		for tid := 0; tid < 4; tid++ {
			for a := int64(0); a < 8; a++ {
				for _, site := range []*raceSite{load, store} {
					if d.access(tid, site, a, a, site == store) != nil {
						t.Fatal("unexpected fail-fast error")
					}
				}
			}
			d.Acquired(tid, 0)
			d.Released(tid, 0)
		}
	}
	pattern() // warm: carve read lists, build reports once
	if n := testing.AllocsPerRun(100, pattern); n > 0 {
		t.Errorf("steady-state race detection allocates %.1f times per pattern, want 0", n)
	}
}
