package interp

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/sim"
)

// runRace assembles a machine with the detector installed and runs it under
// the deterministic policy, returning the machine and the engine error.
func runRace(t *testing.T, m *ir.Module, threads int, rc *RaceConfig, jitterSeed int64) (*Machine, error) {
	t.Helper()
	mach, ths, err := NewMachine(Config{
		Module:     m,
		Threads:    threads,
		Entry:      "main",
		Race:       rc,
		JitterSeed: jitterSeed,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	eng := sim.New(sim.Config{
		Policy:      sim.PolicyDet,
		NumLocks:    m.NumLocks,
		NumBarriers: m.NumBars,
		RecordTrace: true,
		Observer:    mach.Observer(),
	}, Programs(ths))
	_, err = eng.Run()
	return mach, err
}

// Both threads store to shared[0] with no synchronization: write-write race.
const raceWWSrc = `
module raceww
global shared 4

func main() regs 4 {
entry:
  r0 = tid
  store shared[0], r0
  ret r0
}
`

// Thread 0 writes, thread 1 reads, no synchronization: write-read race.
const raceRWSrc = `
module racerw
global shared 4

func main() regs 4 {
entry:
  r0 = tid
  br r0, reader, writer
writer:
  store shared[0], r0
  ret r0
reader:
  r1 = load shared[0]
  ret r1
}
`

// Same conflicting stores, but lock-protected: no race.
const raceLockedSrc = `
module racelocked
global shared 4
locks 1

func main() regs 4 {
entry:
  r0 = tid
  lock 0
  store shared[0], r0
  unlock 0
  ret r0
}
`

// Thread 0 writes before the barrier, everyone reads after it: ordered.
const raceBarrierSrc = `
module racebarrier
global shared 4
barriers 1

func main() regs 4 {
entry:
  r0 = tid
  br r0, after, writer
writer:
  store shared[0], r0
  jmp after
after:
  barrier 0
  r1 = load shared[0]
  ret r1
}
`

// Parent write -> spawn -> child write -> join -> parent read: all ordered.
const raceSpawnSrc = `
module racespawn
global shared 4

func child() regs 2 {
entry:
  r0 = const 7
  store shared[0], r0
  ret r0
}

func main() regs 4 {
entry:
  r0 = const 1
  store shared[0], r0
  r1 = spawn child()
  join r1
  r2 = load shared[0]
  ret r2
}
`

// Two independent racy addresses, for the report cap.
const raceTwoAddrSrc = `
module racetwo
global shared 4

func main() regs 4 {
entry:
  r0 = tid
  store shared[0], r0
  store shared[1], r0
  ret r0
}
`

func TestRaceWriteWriteFailFast(t *testing.T) {
	m := ir.MustParse(raceWWSrc)
	_, err := runRace(t, m, 2, &RaceConfig{Policy: RaceFailFast}, 0)
	if err == nil {
		t.Fatal("expected a race error, run completed cleanly")
	}
	if !errors.Is(err, diag.ErrRace) {
		t.Fatalf("errors.Is(ErrRace) = false for %v", err)
	}
	var re *diag.RaceError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(*RaceError) = false for %v", err)
	}
	if re.Sym != "shared" || re.Index != 0 {
		t.Fatalf("race at %s[%d], want shared[0]", re.Sym, re.Index)
	}
	if !re.First.Write || !re.Second.Write {
		t.Fatalf("want write-write, got %v vs %v", re.First, re.Second)
	}
	if re.First.Thread >= re.Second.Thread {
		t.Fatalf("pair not canonically ordered: threads %d, %d", re.First.Thread, re.Second.Thread)
	}
	if re.First.Site == "" || re.Second.Site == "" {
		t.Fatalf("missing access sites: %q vs %q", re.First.Site, re.Second.Site)
	}
}

func TestRaceWriteReadDetected(t *testing.T) {
	m := ir.MustParse(raceRWSrc)
	mach, err := runRace(t, m, 2, &RaceConfig{Policy: RaceReport}, 0)
	if err != nil {
		t.Fatalf("report mode must finish the run: %v", err)
	}
	races := mach.Races()
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
	re := races[0]
	if re.First.Write == re.Second.Write {
		t.Fatalf("want mixed write/read pair, got %v vs %v", re.First, re.Second)
	}
}

func TestRaceFreeSynchronizedPrograms(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		threads int
	}{
		{"lock-protected", raceLockedSrc, 4},
		{"barrier-ordered", raceBarrierSrc, 4},
		{"spawn-join-ordered", raceSpawnSrc, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.MustParse(tc.src)
			mach, err := runRace(t, m, tc.threads, &RaceConfig{Policy: RaceFailFast}, 0)
			if err != nil {
				t.Fatalf("false positive: %v", err)
			}
			if n := len(mach.Races()); n != 0 {
				t.Fatalf("false positive: %d races collected", n)
			}
		})
	}
}

func TestRaceReportCapDeterministic(t *testing.T) {
	m := ir.MustParse(raceTwoAddrSrc)
	mach, err := runRace(t, m, 2, &RaceConfig{Policy: RaceReport, MaxReports: 1}, 0)
	if err != nil {
		t.Fatalf("report mode must finish the run: %v", err)
	}
	if n := len(mach.Races()); n != 1 {
		t.Fatalf("races = %d, want cap of 1", n)
	}
	if s := mach.RacesSuppressed(); s < 1 {
		t.Fatalf("suppressed = %d, want >= 1", s)
	}
}

// One report per address: re-touching a racy cell must not spam reports.
const raceRepeatSrc = `
module racerepeat
global shared 4

func main() regs 4 {
entry:
  r0 = tid
  r1 = const 0
  jmp loop
loop:
  store shared[0], r0
  r1 = add r1, 1
  r2 = lt r1, 5
  br r2, loop, done
done:
  ret r0
}
`

func TestRaceOneReportPerAddress(t *testing.T) {
	m := ir.MustParse(raceRepeatSrc)
	mach, err := runRace(t, m, 2, &RaceConfig{Policy: RaceReport}, 0)
	if err != nil {
		t.Fatalf("report mode must finish the run: %v", err)
	}
	if n := len(mach.Races()); n != 1 {
		t.Fatalf("races = %d, want exactly 1 (address poisoned after first report)", n)
	}
}

// The detector must not perturb execution: schedule and makespan of a
// race-free program are identical with it on and off.
func TestRaceDetectorIsObservationOnly(t *testing.T) {
	run := func(rc *RaceConfig) (int64, []sim.Acquisition) {
		m := ir.MustParse(raceLockedSrc)
		mach, ths, err := NewMachine(Config{Module: m, Threads: 4, Race: rc})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		eng := sim.New(sim.Config{
			Policy: sim.PolicyDet, NumLocks: m.NumLocks, RecordTrace: true,
			Observer: mach.Observer(),
		}, Programs(ths))
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return stats.Makespan, stats.Trace
	}
	offMake, offTrace := run(nil)
	onMake, onTrace := run(&RaceConfig{Policy: RaceFailFast})
	if offMake != onMake {
		t.Fatalf("makespan changed: off %d, on %d", offMake, onMake)
	}
	if len(offTrace) != len(onTrace) {
		t.Fatalf("trace length changed: off %d, on %d", len(offTrace), len(onTrace))
	}
	for i := range offTrace {
		if offTrace[i] != onTrace[i] {
			t.Fatalf("trace[%d] changed: off %+v, on %+v", i, offTrace[i], onTrace[i])
		}
	}
}

// Deterministic schedules — and race reports — are invariant under
// physical-timing jitter (the PR 1 fault-injection idea applied to timing).
func TestRaceReportInvariantUnderJitter(t *testing.T) {
	var ref *diag.RaceError
	for seed := int64(0); seed < 8; seed++ {
		m := ir.MustParse(raceWWSrc)
		mach, err := runRace(t, m, 2, &RaceConfig{Policy: RaceReport}, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		races := mach.Races()
		if len(races) != 1 {
			t.Fatalf("seed %d: races = %d, want 1", seed, len(races))
		}
		if ref == nil {
			ref = races[0]
			continue
		}
		got := races[0]
		if got.Error() != ref.Error() {
			t.Fatalf("seed %d: report differs:\n%v\nvs reference\n%v", seed, got, ref)
		}
	}
}

// Jitter perturbs physical time: the same deterministic program's makespan
// must actually move across seeds, or the harness tests nothing.
func TestJitterPerturbsPhysicalTime(t *testing.T) {
	makespan := func(seed int64) int64 {
		m := ir.MustParse(raceLockedSrc)
		_, ths, err := NewMachine(Config{Module: m, Threads: 4, JitterSeed: seed})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		eng := sim.New(sim.Config{Policy: sim.PolicyDet, NumLocks: m.NumLocks}, Programs(ths))
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return stats.Makespan
	}
	base := makespan(0)
	moved := false
	for seed := int64(1); seed <= 4; seed++ {
		if makespan(seed) != base {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("jitter never changed the makespan across seeds 1..4")
	}
}

// The layout the detector's cost rests on, checked by the compiler: a
// remembered access is two pointers, a shadow cell at most 48 bytes (an array
// length cannot be negative, nor a constant index out of range).
var (
	_ [48 - unsafe.Sizeof(shadowCell{})]byte
	_ = [1]struct{}{}[unsafe.Sizeof(raceEpoch{})-2*unsafe.Sizeof(uintptr(0))]
)

// A cell remembers an access as a pointer to the accessor's snapshot of that
// sync epoch, so a report built after the accessor has moved on must print
// the clocks and lockset of the access, not of the present.
func TestRaceReportKeepsAccessEpoch(t *testing.T) {
	m := ir.MustParse(raceWWSrc)
	fn := m.Func("main")
	site := &raceSite{sym: "shared", fn: fn, block: fn.Blocks[0], pc: 1}
	d := newRaceDetector(RaceConfig{Policy: RaceReport}, m, 2)
	d.Acquired(1, 0)
	if err := d.access(1, site, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	then := d.cur[1]
	// Thread 1 moves on three sync epochs: clock 1 → 3, lockset {0} → {}.
	d.Released(1, 0)
	d.Acquired(1, 1)
	d.Released(1, 1)
	if d.cur[1] == then || d.vcs[1][1] != 3 || d.locksets[1] != nil {
		t.Fatalf("thread 1 did not move on: clock %d, lockset %v", d.vcs[1][1], d.locksets[1])
	}
	if err := d.access(0, site, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if len(d.races) != 1 {
		t.Fatalf("races = %d, want 1", len(d.races))
	}
	got := d.races[0].Second
	want := diag.RaceAccess{Thread: 1, Write: true, Clock: 1, VC: []int64{0, 1}, Lockset: []int{0}, Site: "main.entry+1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("thread 1's side of the report is %+v, want the access's epoch %+v", got, want)
	}
}

// Locksets are interned: returning to a set held before reuses its slice, the
// empty set is nil, and a snapshot's set is never mutated under it.
func TestRaceLocksetsInterned(t *testing.T) {
	d := newRaceDetector(RaceConfig{}, ir.MustParse(raceLockedSrc), 2)
	d.Acquired(0, 1)
	one := d.locksets[0]
	d.Acquired(0, 0)
	both := d.locksets[0]
	if !reflect.DeepEqual(one, []int{1}) || !reflect.DeepEqual(both, []int{0, 1}) {
		t.Fatalf("locksets %v then %v, want [1] then [0 1]", one, both)
	}
	d.Released(0, 0)
	if &d.locksets[0][0] != &one[0] {
		t.Error("release back to {1} built a new slice")
	}
	d.Acquired(0, 0)
	if &d.locksets[0][0] != &both[0] {
		t.Error("re-acquire back to {0 1} built a new slice")
	}
	d.Released(0, 0)
	d.Released(0, 1)
	if d.locksets[0] != nil {
		t.Errorf("empty lockset is %v, want nil", d.locksets[0])
	}
	d.Acquired(1, 1)
	if &d.locksets[1][0] != &one[0] {
		t.Error("single-lock sets are not shared across threads")
	}
	if !reflect.DeepEqual(one, []int{1}) || !reflect.DeepEqual(both, []int{0, 1}) {
		t.Errorf("interned sets mutated: %v, %v", one, both)
	}
}
