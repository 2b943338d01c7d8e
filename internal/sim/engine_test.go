package sim

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/diag"
)

// scriptProg replays a fixed list of steps.
type scriptProg struct {
	steps []Step
	pos   int
}

func (p *scriptProg) Step(out *Step) error {
	if p.pos >= len(p.steps) {
		return errors.New("script exhausted")
	}
	*out = p.steps[p.pos]
	p.pos++
	return nil
}

func adv(cycles, clock int64) Step {
	return Step{Kind: StepAdvance, Cycles: cycles, ClockDelta: clock}
}
func lock(obj int) Step   { return Step{Kind: StepLock, Obj: obj} }
func unlock(obj int) Step { return Step{Kind: StepUnlock, Obj: obj} }
func barrier(obj int) Step {
	return Step{Kind: StepBarrier, Obj: obj}
}
func done() Step { return Step{Kind: StepDone} }

func run(t *testing.T, cfg Config, progs ...[]Step) *Stats {
	t.Helper()
	var ps []Program
	for _, s := range progs {
		ps = append(ps, &scriptProg{steps: s})
	}
	eng := New(cfg, ps)
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestSingleThreadMakespan(t *testing.T) {
	stats := run(t, Config{NumLocks: 1},
		[]Step{adv(100, 0), lock(0), unlock(0), adv(50, 0), done()})
	if stats.Makespan != 150 {
		t.Fatalf("makespan = %d, want 150", stats.Makespan)
	}
	if stats.Acquisitions != 1 {
		t.Fatalf("acquisitions = %d", stats.Acquisitions)
	}
}

func TestFCFSGrantsInRequestOrder(t *testing.T) {
	// Thread 0 reaches the lock at t=10, thread 1 at t=5: FCFS grants 1 first.
	stats := run(t, Config{NumLocks: 1, RecordTrace: true},
		[]Step{adv(10, 0), lock(0), adv(100, 0), unlock(0), done()},
		[]Step{adv(5, 0), lock(0), adv(1, 0), unlock(0), done()},
	)
	if len(stats.Trace) != 2 {
		t.Fatalf("trace len = %d", len(stats.Trace))
	}
	if stats.Trace[0].Thread != 1 {
		t.Fatalf("first grant to thread %d, want 1 (earlier request)", stats.Trace[0].Thread)
	}
}

func TestDetGrantsInClockOrder(t *testing.T) {
	// Thread 0 requests physically first but with the HIGHER clock; the
	// deterministic policy grants thread 1 (lower clock) first.
	stats := run(t, Config{Policy: PolicyDet, NumLocks: 1, RecordTrace: true},
		[]Step{adv(5, 100), lock(0), adv(1, 1), unlock(0), done()},
		[]Step{adv(50, 10), lock(0), adv(1, 1), unlock(0), done()},
	)
	if stats.Trace[0].Thread != 1 {
		t.Fatalf("first grant to thread %d, want 1 (lower clock)", stats.Trace[0].Thread)
	}
	// Thread 0 must have waited for thread 1's clock to pass 100.
	if stats.WaitCycles == 0 {
		t.Fatalf("expected turn-waiting cycles")
	}
}

func TestDetTieBreakById(t *testing.T) {
	stats := run(t, Config{Policy: PolicyDet, NumLocks: 1, RecordTrace: true},
		[]Step{adv(9, 50), lock(0), adv(1, 1), unlock(0), done()},
		[]Step{adv(5, 50), lock(0), adv(1, 1), unlock(0), done()},
	)
	if stats.Trace[0].Thread != 0 {
		t.Fatalf("tie must go to thread 0, got %d", stats.Trace[0].Thread)
	}
}

func TestDetWaiterResumesAtFrozenClockPlusOne(t *testing.T) {
	// Thread 0 (clock 10) takes the lock and holds it for 1000 cycles while
	// pushing its clock to 2000; thread 1 (clock 20) blocks and must resume
	// at 20+1, independent of the holder's clock.
	stats := run(t, Config{Policy: PolicyDet, NumLocks: 1, RecordTrace: true},
		[]Step{adv(1, 10), lock(0), adv(1000, 2000), unlock(0), done()},
		[]Step{adv(2, 20), lock(0), adv(1, 0), unlock(0), done()},
	)
	if len(stats.Trace) != 2 {
		t.Fatalf("trace len = %d", len(stats.Trace))
	}
	second := stats.Trace[1]
	if second.Thread != 1 || second.Clock != 21 {
		t.Fatalf("second grant = %+v, want thread 1 at clock 21", second)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	mk := func(work int64) []Step {
		return []Step{adv(work, work), barrier(0), adv(10, 10), done()}
	}
	stats := run(t, Config{NumBarriers: 1, Policy: PolicyDet},
		mk(100), mk(300), mk(200))
	// All threads leave at max(arrivals) = 300, finish at 310.
	for id, c := range stats.PerThreadCycles {
		if c != 310 {
			t.Fatalf("thread %d finished at %d, want 310", id, c)
		}
	}
	if stats.BarrierEpisodes != 1 {
		t.Fatalf("episodes = %d", stats.BarrierEpisodes)
	}
}

func TestDeadlockReported(t *testing.T) {
	ps := []Program{
		&scriptProg{steps: []Step{lock(0), adv(10, 0), lock(1), unlock(1), unlock(0), done()}},
		&scriptProg{steps: []Step{adv(5, 0), lock(1), lock(0), unlock(0), unlock(1), done()}},
	}
	eng := New(Config{NumLocks: 2}, ps)
	_, err := eng.Run()
	if !errors.Is(err, diag.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// The report is structured: it names the exact ABBA wait-for cycle.
	var dd *diag.DeadlockError
	if !errors.As(err, &dd) {
		t.Fatalf("err = %v, want *diag.DeadlockError", err)
	}
	wantCycle := []diag.WaitEdge{
		{Waiter: 0, Resource: "mutex#1", Holder: 1},
		{Waiter: 1, Resource: "mutex#0", Holder: 0},
	}
	if len(dd.Cycle) != len(wantCycle) {
		t.Fatalf("cycle = %+v, want %+v", dd.Cycle, wantCycle)
	}
	for i, e := range dd.Cycle {
		if e != wantCycle[i] {
			t.Fatalf("cycle[%d] = %+v, want %+v", i, e, wantCycle[i])
		}
	}
	for _, s := range dd.Threads {
		if s.State != "blocked" {
			t.Fatalf("thread %d state = %q, want blocked", s.ID, s.State)
		}
	}
}

func TestStepLimit(t *testing.T) {
	// An endless program trips the step limit.
	endless := &endlessProg{}
	eng := New(Config{MaxSteps: 10}, []Program{endless})
	_, err := eng.Run()
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

type endlessProg struct{}

func (p *endlessProg) Step(out *Step) error { *out = adv(1, 1); return nil }

func TestUnlockNotHeldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unlock of unheld lock must panic")
		}
	}()
	ps := []Program{&scriptProg{steps: []Step{unlock(0), done()}}}
	eng := New(Config{NumLocks: 1}, ps)
	_, _ = eng.Run()
}

func TestWaitCyclesAccounting(t *testing.T) {
	// Thread 1 reaches a held lock at t=5 and is granted at the holder's
	// release (t=100): ~95 cycles of waiting must be recorded.
	stats := run(t, Config{NumLocks: 1, RecordTrace: true},
		[]Step{lock(0), adv(100, 0), unlock(0), done()},
		[]Step{adv(5, 0), lock(0), unlock(0), done()},
	)
	if stats.WaitCycles < 90 {
		t.Fatalf("wait cycles = %d, want >= 90", stats.WaitCycles)
	}
}

// Property: under PolicyDet with two single-acquisition threads, the thread
// with the lower (clock, id) always acquires first, for any physical timing.
func TestDetOrderProperty(t *testing.T) {
	f := func(physA, physB uint16, clockA, clockB uint16) bool {
		stats := run(t, Config{Policy: PolicyDet, NumLocks: 1, RecordTrace: true},
			[]Step{adv(int64(physA), int64(clockA)), lock(0), adv(1, 1), unlock(0), done()},
			[]Step{adv(int64(physB), int64(clockB)), lock(0), adv(1, 1), unlock(0), done()},
		)
		want := 0
		if int64(clockB) < int64(clockA) {
			want = 1
		}
		return stats.Trace[0].Thread == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
