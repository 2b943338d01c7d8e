package interp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
)

// spawnSrc: main spawns two workers with different arguments, joins both,
// and combines their results through shared memory.
const spawnSrc = `
module spawntest
global out 8
locks 1

func worker(r0) regs 4 {
entry:
  r1 = mul r0, r0
  lock 0
  store out[r0], r1
  unlock 0
  ret r1
}

func main() regs 8 {
entry:
  r0 = spawn worker(2)
  r1 = spawn worker(3)
  join r0
  join r1
  r2 = load out[2]
  r3 = load out[3]
  r4 = add r2, r3
  print r4
  ret r4
}
`

func runSpawn(t *testing.T, m *ir.Module, policy sim.LockPolicy) (*Machine, []*Thread, *sim.Stats) {
	t.Helper()
	mach, ths, err := NewMachine(Config{Module: m, Threads: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{
		Policy: policy, NumLocks: m.NumLocks, RecordTrace: true,
	}, Programs(ths))
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return mach, ths, stats
}

func TestSpawnJoinBasic(t *testing.T) {
	m := ir.MustParse(spawnSrc)
	mach, ths, stats := runSpawn(t, m, sim.PolicyFCFS)
	if got := ths[0].Output[0]; got != 13 { // 4 + 9
		t.Fatalf("output = %d, want 13", got)
	}
	if len(mach.spawned) != 2 {
		t.Fatalf("spawned = %d threads", len(mach.spawned))
	}
	if stats.Acquisitions != 2 {
		t.Fatalf("acquisitions = %d", stats.Acquisitions)
	}
	// Three final clocks/cycles entries: main + 2 spawned.
	if len(stats.PerThreadCycles) != 3 {
		t.Fatalf("per-thread cycles = %d entries", len(stats.PerThreadCycles))
	}
}

func TestSpawnHandlesAreDeterministic(t *testing.T) {
	run := func() []sim.Acquisition {
		m := ir.MustParse(spawnSrc)
		_, _, stats := runSpawn(t, m, sim.PolicyDet)
		return stats.Trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 2 {
		t.Fatalf("trace lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spawned-thread schedule diverged at %d", i)
		}
	}
}

func TestSpawnUnderDetPolicyClocks(t *testing.T) {
	m := ir.MustParse(spawnSrc)
	_, _, stats := runSpawn(t, m, sim.PolicyDet)
	// Spawned threads start at parent clock+1 and tick at their lock ops:
	// final clocks must be positive and deterministic.
	for tid, c := range stats.FinalClocks {
		if c <= 0 {
			t.Fatalf("thread %d final clock = %d", tid, c)
		}
	}
}

func TestSpawnRoundTripAndInstrument(t *testing.T) {
	m := ir.MustParse(spawnSrc)
	text := m.String()
	m2, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if m2.String() != text {
		t.Fatalf("spawn/join round trip unstable")
	}
	// Instrumentation treats spawn/join as sync points; worker is a spawn
	// root and therefore must NOT be clocked even under O1.
	res, err := core.Instrument(m2, nil, nil, core.Options{O1: true, Roots: []string{"main"}})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if _, ok := res.Clockable["worker"]; ok {
		t.Fatalf("spawn root must not be clockable")
	}
	mach, ths, err := NewMachine(Config{Module: m2, Threads: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{Policy: sim.PolicyDet, NumLocks: m2.NumLocks}, Programs(ths))
	if _, err := eng.Run(); err != nil {
		t.Fatalf("instrumented spawn run: %v", err)
	}
	_ = mach
}

func TestJoinInvalidTargetPanics(t *testing.T) {
	src := `
module badjoin
func main() regs 2 {
entry:
  r0 = const 99
  join r0
  ret 0
}
`
	m := ir.MustParse(src)
	_, ths, err := NewMachine(Config{Module: m, Threads: 1})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("join of invalid handle must panic")
		}
	}()
	eng := sim.New(sim.Config{}, Programs(ths))
	_, _ = eng.Run()
}

func TestSpawnFanOutSum(t *testing.T) {
	// main spawns 6 workers, each writing id*10; after joins the sum checks.
	src := `
module fan
global slots 16

func w(r0) regs 2 {
entry:
  r1 = mul r0, 10
  store slots[r0], r1
  ret r1
}

func main() regs 16 {
entry:
  r1 = spawn w(1)
  r2 = spawn w(2)
  r3 = spawn w(3)
  r4 = spawn w(4)
  r5 = spawn w(5)
  r6 = spawn w(6)
  join r1
  join r2
  join r3
  join r4
  join r5
  join r6
  r7 = const 0
  r8 = const 0
  jmp sum
sum:
  r9 = lt r8, 16
  br r9, body, done
body:
  r10 = load slots[r8]
  r7 = add r7, r10
  r8 = add r8, 1
  jmp sum
done:
  print r7
  ret r7
}
`
	m := ir.MustParse(src)
	_, ths, stats := runSpawn(t, m, sim.PolicyDet)
	if got := ths[0].Output[0]; got != 210 {
		t.Fatalf("sum = %d, want 210", got)
	}
	if len(stats.FinalClocks) != 7 {
		t.Fatalf("threads = %d, want 7", len(stats.FinalClocks))
	}
}
