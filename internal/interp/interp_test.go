package interp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
)

// runSim assembles a machine and engine and runs to completion.
func runSim(t *testing.T, m *ir.Module, threads int, mode ClockMode, policy sim.LockPolicy) (*Machine, []*Thread, *sim.Stats) {
	t.Helper()
	mach, ths, err := NewMachine(Config{
		Module:  m,
		Threads: threads,
		Entry:   "main",
		Mode:    mode,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{
		Policy:      policy,
		NumLocks:    m.NumLocks,
		NumBarriers: m.NumBars,
		RecordTrace: true,
	}, Programs(ths))
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return mach, ths, stats
}

const sumSrc = `
module sum
global acc 1
locks 1

func main() regs 8 {
entry:
  r0 = const 0
  r1 = const 0
  jmp loop
loop:
  r2 = lt r0, 100
  br r2, body, done
body:
  r1 = add r1, r0
  r0 = add r0, 1
  jmp loop
done:
  lock 0
  r3 = load acc[0]
  r4 = add r3, r1
  store acc[0], r4
  unlock 0
  ret r1
}
`

func TestSequentialSum(t *testing.T) {
	m := ir.MustParse(sumSrc)
	mach, _, stats := runSim(t, m, 1, ModeDetLock, sim.PolicyFCFS)
	if got := mach.Global("acc")[0]; got != 4950 {
		t.Fatalf("acc = %d, want 4950", got)
	}
	if stats.Acquisitions != 1 {
		t.Fatalf("acquisitions = %d", stats.Acquisitions)
	}
	if stats.Makespan <= 0 {
		t.Fatalf("makespan = %d", stats.Makespan)
	}
}

func TestParallelSumAllPolicies(t *testing.T) {
	for _, policy := range []sim.LockPolicy{sim.PolicyFCFS, sim.PolicyDet} {
		m := ir.MustParse(sumSrc)
		mach, _, stats := runSim(t, m, 4, ModeDetLock, policy)
		if got := mach.Global("acc")[0]; got != 4*4950 {
			t.Fatalf("policy %d: acc = %d, want %d", policy, got, 4*4950)
		}
		if stats.Acquisitions != 4 {
			t.Fatalf("policy %d: acquisitions = %d", policy, stats.Acquisitions)
		}
	}
}

const tidSrc = `
module tid
global out 8

func main() regs 4 {
entry:
  r0 = tid
  r1 = nthreads
  r2 = mul r0, 10
  r2 = add r2, r1
  store out[r0], r2
  print r2
  ret 0
}
`

func TestTidAndPrint(t *testing.T) {
	m := ir.MustParse(tidSrc)
	mach, ths, _ := runSim(t, m, 4, ModeDetLock, sim.PolicyFCFS)
	out := mach.Global("out")
	for tid := 0; tid < 4; tid++ {
		want := int64(tid*10 + 4)
		if out[tid] != want {
			t.Fatalf("out[%d] = %d, want %d", tid, out[tid], want)
		}
		if len(ths[tid].Output) != 1 || ths[tid].Output[0] != want {
			t.Fatalf("thread %d output = %v", tid, ths[tid].Output)
		}
	}
}

const callSrc = `
module call
func square(r0) regs 2 {
entry:
  r1 = mul r0, r0
  ret r1
}
func main() regs 4 {
entry:
  r0 = call square(7)
  r1 = call sqrt(r0)
  print r0
  print r1
  ret r1
}
`

func TestCallsAndBuiltins(t *testing.T) {
	m := ir.MustParse(callSrc)
	_, ths, _ := runSim(t, m, 1, ModeDetLock, sim.PolicyFCFS)
	if ths[0].Output[0] != 49 || ths[0].Output[1] != 7 {
		t.Fatalf("output = %v, want [49 7]", ths[0].Output)
	}
}

func TestRecursionOverflowDetected(t *testing.T) {
	src := `
module rec
func f(r0) regs 2 {
entry:
  r1 = call f(r0)
  ret r1
}
func main() regs 2 {
entry:
  r0 = call f(1)
  ret r0
}
`
	m := ir.MustParse(src)
	mach, ths, err := NewMachine(Config{Module: m, Threads: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	_ = mach
	eng := sim.New(sim.Config{}, Programs(ths))
	_, err = eng.Run()
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	src := `
module oob
global g 4
func main() regs 2 {
entry:
  r0 = const 99
  r1 = load g[r0]
  ret r1
}
`
	m := ir.MustParse(src)
	_, ths, err := NewMachine(Config{Module: m, Threads: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{}, Programs(ths))
	_, err = eng.Run()
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v, want out of bounds", err)
	}
}

const contentionSrc = `
module contention
global hist 64
locks 1

func main() regs 8 {
entry:
  r0 = const 0
  r5 = tid
  r5 = mul r5, 37
  r5 = add r5, 11
  jmp loop
loop:
  r1 = lt r0, 50
  br r1, body, done
body:
  r5 = mul r5, 1103515245
  r5 = add r5, 12345
  r6 = mod r5, 64
  r7 = ge r6, 0
  br r7, pos, neg
neg:
  r6 = add r6, 64
  jmp pos
pos:
  lock 0
  r2 = load hist[r6]
  r2 = add r2, 1
  store hist[r6], r2
  unlock 0
  r0 = add r0, 1
  jmp loop
done:
  ret 0
}
`

// instrumentFor instruments a fresh parse of src for n threads.
func instrumentFor(t *testing.T, src string, opt core.Options) *ir.Module {
	t.Helper()
	m := ir.MustParse(src)
	opt.Roots = []string{"main"}
	if _, err := core.Instrument(m, nil, nil, opt); err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	return m
}

func TestDeterministicTraceUnderDetPolicy(t *testing.T) {
	ref := func() []sim.Acquisition {
		m := instrumentFor(t, contentionSrc, core.OptAll)
		_, _, stats := runSim(t, m, 4, ModeDetLock, sim.PolicyDet)
		return stats.Trace
	}()
	if len(ref) != 4*50 {
		t.Fatalf("trace length = %d, want 200", len(ref))
	}
	for run := 0; run < 3; run++ {
		got := func() []sim.Acquisition {
			m := instrumentFor(t, contentionSrc, core.OptAll)
			_, _, stats := runSim(t, m, 4, ModeDetLock, sim.PolicyDet)
			return stats.Trace
		}()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d: trace[%d] = %+v, want %+v", run, i, got[i], ref[i])
			}
		}
	}
}

func TestSameResultAcrossOptLevels(t *testing.T) {
	// The program's OUTPUT must be identical whatever instrumentation is
	// applied — instrumentation only changes clocks, never semantics.
	var want []int64
	for i, opt := range core.TableIPresets() {
		m := instrumentFor(t, contentionSrc, opt)
		mach, _, _ := runSim(t, m, 4, ModeDetLock, sim.PolicyDet)
		hist := append([]int64(nil), mach.Global("hist")...)
		var total int64
		for _, v := range hist {
			total += v
		}
		if total != 200 {
			t.Fatalf("optset %d: histogram total = %d, want 200", i, total)
		}
		if i == 0 {
			want = hist
			continue
		}
		for j := range hist {
			if hist[j] != want[j] {
				t.Fatalf("optset %d: hist[%d] = %d, differs from no-opt %d",
					i, j, hist[j], want[j])
			}
		}
	}
}

func TestClockUpdatesCounted(t *testing.T) {
	m := instrumentFor(t, sumSrc, core.OptNone)
	mach, _, _ := runSim(t, m, 1, ModeDetLock, sim.PolicyFCFS)
	if mach.ClockUpdates == 0 {
		t.Fatalf("instrumented run should count clock updates")
	}
	// The loop runs 100 iterations; expect at least one update per iteration.
	if mach.ClockUpdates < 100 {
		t.Fatalf("ClockUpdates = %d, want >= 100", mach.ClockUpdates)
	}
}

func TestOptimizationReducesClockUpdates(t *testing.T) {
	mNone := instrumentFor(t, contentionSrc, core.OptNone)
	machNone, _, _ := runSim(t, mNone, 2, ModeDetLock, sim.PolicyDet)
	mAll := instrumentFor(t, contentionSrc, core.OptAll)
	machAll, _, _ := runSim(t, mAll, 2, ModeDetLock, sim.PolicyDet)
	if machAll.ClockUpdates >= machNone.ClockUpdates {
		t.Fatalf("all-opts updates %d should be below no-opt %d",
			machAll.ClockUpdates, machNone.ClockUpdates)
	}
}

// TestKendoChunkSize: both interpreters refuse a negative chunk (the decoded
// loop would take an interrupt at every terminator, the reference at none),
// and both still read zero as 1,000.
func TestKendoChunkSize(t *testing.T) {
	m := ir.MustParse(`
module chunks
global cells 4

func main() regs 3 {
entry:
  r0 = const 0
  r1 = tid
  jmp loop
loop:
  r2 = lt r0, 3000
  br r2, body, done
body:
  store cells[r1], r0
  r0 = add r0, 1
  jmp loop
done:
  ret r0
}
`)
	for _, ref := range []bool{false, true} {
		run := func(chunk int64) (*Machine, *sim.Stats, error) {
			mach, ths, err := NewMachine(Config{Module: m, Threads: 4, Mode: ModeKendo, KendoChunkSize: chunk, Reference: ref})
			if err != nil {
				return nil, nil, err
			}
			stats, err := sim.New(sim.Config{Policy: sim.PolicyDet, NumLocks: m.NumLocks}, Programs(ths)).Run()
			if err != nil {
				t.Fatalf("reference=%v, chunk %d: %v", ref, chunk, err)
			}
			return mach, stats, nil
		}
		if _, _, err := run(-1); err == nil || !strings.Contains(err.Error(), "negative Kendo chunk size -1") {
			t.Errorf("reference=%v: chunk -1 gave %v, want a refusal", ref, err)
		}
		mach0, stats0, _ := run(0)
		mach1000, stats1000, _ := run(1000)
		if mach0.Interrupts == 0 || mach0.Interrupts != mach1000.Interrupts || !reflect.DeepEqual(stats0, stats1000) {
			t.Errorf("reference=%v: chunk 0 took %d interrupts, chunk 1000 %d; stats equal %v",
				ref, mach0.Interrupts, mach1000.Interrupts, reflect.DeepEqual(stats0, stats1000))
		}
	}
}

func TestKendoMode(t *testing.T) {
	m := ir.MustParse(contentionSrc) // uninstrumented
	mach, ths, err := NewMachine(Config{
		Module:         m,
		Threads:        4,
		Mode:           ModeKendo,
		KendoChunkSize: 20,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{
		Policy:      sim.PolicyDet,
		NumLocks:    m.NumLocks,
		RecordTrace: true,
	}, Programs(ths))
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if stats.Acquisitions != 200 {
		t.Fatalf("acquisitions = %d", stats.Acquisitions)
	}
	if mach.Interrupts == 0 {
		t.Fatalf("kendo mode should take overflow interrupts")
	}
	if mach.StoresRetired == 0 {
		t.Fatalf("stores not counted")
	}
}

func TestKendoTraceDeterministic(t *testing.T) {
	run := func() []sim.Acquisition {
		m := ir.MustParse(contentionSrc)
		_, ths, err := NewMachine(Config{
			Module: m, Threads: 4, Mode: ModeKendo, KendoChunkSize: 64,
		})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		eng := sim.New(sim.Config{
			Policy: sim.PolicyDet, NumLocks: m.NumLocks, RecordTrace: true,
		}, Programs(ths))
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		return stats.Trace
	}
	ref := run()
	got := run()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("kendo trace diverged at %d", i)
		}
	}
}

const barrierSrc = `
module bar
global phase 8
barriers 1

func main() regs 4 {
entry:
  r0 = tid
  store phase[r0], 1
  barrier 0
  store phase[r0], 2
  barrier 0
  ret 0
}
`

func TestBarrierRounds(t *testing.T) {
	m := ir.MustParse(barrierSrc)
	mach, _, stats := runSim(t, m, 4, ModeDetLock, sim.PolicyDet)
	if stats.BarrierEpisodes != 2 {
		t.Fatalf("episodes = %d, want 2", stats.BarrierEpisodes)
	}
	for tid := 0; tid < 4; tid++ {
		if mach.Global("phase")[tid] != 2 {
			t.Fatalf("phase[%d] = %d", tid, mach.Global("phase")[tid])
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	src := `
module dl
locks 2
func main() regs 2 {
entry:
  r0 = tid
  br r0, t1, t0
t0:
  lock 0
  lock 1
  unlock 1
  unlock 0
  ret 0
t1:
  lock 1
  lock 0
  unlock 0
  unlock 1
  ret 0
}
`
	m := ir.MustParse(src)
	_, ths, err := NewMachine(Config{Module: m, Threads: 2})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{Policy: sim.PolicyFCFS, NumLocks: 2}, Programs(ths))
	_, err = eng.Run()
	if err == nil {
		t.Fatalf("classic AB/BA deadlock should be reported")
	}
}

func TestEngineStepLimit(t *testing.T) {
	src := `
module spin
func main() regs 2 {
entry:
  jmp entry
}
`
	m := ir.MustParse(src)
	_, ths, err := NewMachine(Config{Module: m, Threads: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{MaxSteps: 100}, Programs(ths))
	_, err = eng.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestEntryValidation(t *testing.T) {
	m := ir.MustParse(sumSrc)
	if _, _, err := NewMachine(Config{Module: m, Entry: "nosuch"}); err == nil {
		t.Fatalf("missing entry should fail")
	}
	src := `
module e
func main(r0) regs 1 {
entry:
  ret r0
}
`
	m2 := ir.MustParse(src)
	if _, _, err := NewMachine(Config{Module: m2}); err == nil {
		t.Fatalf("entry with params should fail")
	}
}
