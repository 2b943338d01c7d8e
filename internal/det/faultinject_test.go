package det

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// jitter perturbs physical timing around a thread body's lock operations:
// before each Lock, Unlock and TryLock it yields up to storm times and sleeps
// for up to sleep, both drawn from a stream that depends only on (seed,
// thread id), never on the interleaving. It never touches a logical clock,
// so it must not change a schedule, a clock or a failure report, and the
// tests that use it check that it does not. A positive panicAt makes the
// thread panic, with an error wrapping diag.ErrInjected, at its panicAt-th
// lock operation; the count is the thread's own, so the failure is
// reproducible, and it is contained like any user panic.
type jitter struct {
	seed    int64
	storm   int
	sleep   time.Duration
	panicAt int64
}

// threadJitter is one thread's jitter, made and used on that thread.
type threadJitter struct {
	jitter
	th  *Thread
	rng *detrand.Rand
	ops int64
}

func (j jitter) on(th *Thread) *threadJitter {
	return &threadJitter{jitter: j, th: th, rng: detrand.New(j.seed, th.ID())}
}

func (tj *threadJitter) lock(m *Mutex)   { tj.perturb("Mutex.Lock"); m.Lock(tj.th) }
func (tj *threadJitter) unlock(m *Mutex) { tj.perturb("Mutex.Unlock"); m.Unlock(tj.th) }
func (tj *threadJitter) tryLock(m *Mutex) bool {
	tj.perturb("Mutex.TryLock")
	return m.TryLock(tj.th)
}

func (tj *threadJitter) perturb(op string) {
	tj.ops++
	if tj.ops == tj.panicAt {
		panic(fmt.Errorf("%w: %s %d on thread %d", diag.ErrInjected, op, tj.ops, tj.th.ID()))
	}
	if tj.storm > 0 {
		for i := tj.rng.Next() % uint64(tj.storm+1); i > 0; i-- {
			runtime.Gosched()
		}
	}
	if tj.sleep > 0 {
		if d := time.Duration(tj.rng.Next() % uint64(tj.sleep)); d > 0 {
			time.Sleep(d)
		}
	}
}

// runABBA runs the canonical two-thread lock-order-inversion program under a
// seeded perturbation and returns Run's error. The clocks force the
// interleaving t0:lockA, t1:lockB, t0:lockB(block), t1:lockA(block) on every
// run — under turn gating the deadlock is a function of the clocks, not of
// physical timing, so it manifests for every seed.
func runABBA(t *testing.T, seed int64) error {
	t.Helper()
	rt := New(2)
	a := rt.NewMutex() // mutex#0
	b := rt.NewMutex() // mutex#1
	return rt.Run(func(th *Thread) {
		j := jitter{seed: seed, storm: 8, sleep: 40 * time.Microsecond}.on(th)
		if th.ID() == 0 {
			th.Tick(10)
			j.lock(a) // clock 11
			th.Tick(10)
			j.lock(b) // attempts at clock 21, blocks
			j.unlock(b)
			j.unlock(a)
		} else {
			th.Tick(15)
			j.lock(b) // clock 16
			th.Tick(5)
			j.lock(a) // attempts at clock 21, blocks
			j.unlock(a)
			j.unlock(b)
		}
	})
}

// TestABBADeadlockDeterministic is the acceptance property: a two-thread
// lock-order cycle terminates with a DeadlockError naming the exact wait-for
// cycle, with identical per-thread clocks, across >= 20 perturbed seeds.
func TestABBADeadlockDeterministic(t *testing.T) {
	var ref *diag.DeadlockError
	for seed := int64(0); seed < 21; seed++ {
		err := runABBA(t, seed)
		if !errors.Is(err, diag.ErrDeadlock) {
			t.Fatalf("seed %d: err = %v, want deadlock", seed, err)
		}
		var dd *diag.DeadlockError
		if !errors.As(err, &dd) {
			t.Fatalf("seed %d: no *diag.DeadlockError in %v", seed, err)
		}
		if len(dd.Cycle) != 2 {
			t.Fatalf("seed %d: cycle = %+v, want 2 edges", seed, dd.Cycle)
		}
		if ref == nil {
			ref = dd
			// Check the exact cycle once: t0 waits on mutex#1 held by t1,
			// which waits on mutex#0 held by t0.
			want := []diag.WaitEdge{
				{Waiter: 0, Resource: "mutex#1", Holder: 1},
				{Waiter: 1, Resource: "mutex#0", Holder: 0},
			}
			for i, e := range dd.Cycle {
				if e != want[i] {
					t.Fatalf("cycle[%d] = %+v, want %+v", i, e, want[i])
				}
			}
			// Both threads frozen at the deterministic clock 21.
			for _, s := range dd.Threads {
				if s.Clock != 21 || s.State != "blocked" {
					t.Fatalf("snapshot %+v, want blocked at clock 21", s)
				}
			}
			continue
		}
		for i, e := range dd.Cycle {
			if e != ref.Cycle[i] {
				t.Fatalf("seed %d: cycle[%d] = %+v, reference %+v", seed, i, e, ref.Cycle[i])
			}
		}
		if len(dd.Threads) != len(ref.Threads) {
			t.Fatalf("seed %d: %d snapshots vs %d", seed, len(dd.Threads), len(ref.Threads))
		}
		for i, s := range dd.Threads {
			if s != ref.Threads[i] {
				t.Fatalf("seed %d: snapshot[%d] = %+v, reference %+v", seed, i, s, ref.Threads[i])
			}
		}
	}
}

// TestGoschedStormPreservesSchedule: scheduling perturbations at lock
// operations must not change the acquisition schedule or the clocks of a
// healthy run (weak determinism of surviving runs is unaffected).
func TestGoschedStormPreservesSchedule(t *testing.T) {
	type acq struct {
		tid   int
		clock int64
	}
	run := func(seed int64, inject bool) []acq {
		rt := New(4)
		var jit jitter
		if inject {
			jit = jitter{seed: seed, storm: 16, sleep: 30 * time.Microsecond}
		}
		mu := rt.NewMutex()
		var seq []acq
		mu.SetObserver(func(tid int, c int64) { seq = append(seq, acq{tid, c}) })
		if err := rt.Run(func(th *Thread) {
			j := jit.on(th)
			prng := xorshift(uint64(th.ID())*2654435761 + 99)
			for i := 0; i < 60; i++ {
				th.Tick(int64(prng.next()%53) + 1)
				j.lock(mu)
				j.unlock(mu)
			}
		}); err != nil {
			t.Fatalf("seed %d: unexpected error: %v", seed, err)
		}
		return seq
	}
	ref := run(0, false)
	if len(ref) != 240 {
		t.Fatalf("acquisitions = %d, want 240", len(ref))
	}
	for seed := int64(1); seed <= 10; seed++ {
		got := run(seed, true)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d acquisitions, want %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: acquisition %d = %+v, reference %+v", seed, i, got[i], ref[i])
			}
		}
	}
}

// TestInjectedPanicContained: an injected panic is surfaced as a typed
// ThreadPanicError while the surviving thread completes its work.
func TestInjectedPanicContained(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	var survivorDone int
	err := rt.Run(func(th *Thread) {
		jit := jitter{seed: 1}
		if th.ID() == 0 {
			jit.panicAt = 3 // thread 0 dies at its 3rd lock operation
		}
		j := jit.on(th)
		for i := 0; i < 10; i++ {
			th.Tick(int64(th.ID()*3 + i + 1))
			j.lock(mu)
			if th.ID() == 1 {
				survivorDone++
			}
			j.unlock(mu)
		}
	})
	if !errors.Is(err, diag.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	var pe *diag.ThreadPanicError
	if !errors.As(err, &pe) || pe.ThreadID != 0 {
		t.Fatalf("err = %v, want ThreadPanicError on thread 0", err)
	}
	if survivorDone != 10 {
		t.Fatalf("survivor completed %d/10 iterations", survivorDone)
	}
	if ps := rt.Panics(); len(ps) != 1 || ps[0].ThreadID != 0 {
		t.Fatalf("Panics() = %v", ps)
	}
}

// TestPanicWhileHoldingLockEscalatesToDeadlock: a thread that dies holding a
// mutex leaves the survivor permanently blocked; the detector must fire with
// a report naming the dead holder, joined with the panic — no hang.
func TestPanicWhileHoldingLockEscalatesToDeadlock(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	err := rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Tick(1)
			mu.Lock(th)
			panic("user bug while holding mutex#0")
		}
		th.Tick(10)
		mu.Lock(th) // blocks forever: holder died
		mu.Unlock(th)
	})
	if !errors.Is(err, diag.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	var dd *diag.DeadlockError
	if !errors.As(err, &dd) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	if len(dd.Waits) != 1 || dd.Waits[0].Waiter != 1 || dd.Waits[0].Resource != "mutex#0" || dd.Waits[0].Holder != 0 {
		t.Fatalf("waits = %+v, want thread 1 on mutex#0 held by dead thread 0", dd.Waits)
	}
	var pe *diag.ThreadPanicError
	if !errors.As(err, &pe) || pe.ThreadID != 0 {
		t.Fatalf("panic not joined into the report: %v", err)
	}
	// Snapshot must show the dead holder as panicked.
	if dd.Threads[0].State != "panicked" {
		t.Fatalf("snapshot[0] = %+v, want panicked", dd.Threads[0])
	}
}

// TestRecursiveLockIsDeadlock: locking a non-reentrant mutex twice is a
// one-thread wait-for cycle, reported, not hung.
func TestRecursiveLockIsDeadlock(t *testing.T) {
	rt := New(1)
	mu := rt.NewMutex()
	err := rt.Run(func(th *Thread) {
		th.Tick(1)
		mu.Lock(th)
		mu.Lock(th)
	})
	var dd *diag.DeadlockError
	if !errors.As(err, &dd) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := diag.WaitEdge{Waiter: 0, Resource: "mutex#0", Holder: 0}
	if len(dd.Cycle) != 1 || dd.Cycle[0] != want {
		t.Fatalf("cycle = %+v, want [%+v]", dd.Cycle, want)
	}
}

// TestJoinCycleDeadlock: parent joins a child that is blocked on a mutex the
// parent holds — a mixed join/mutex cycle.
func TestJoinCycleDeadlock(t *testing.T) {
	rt := New(1)
	mu := rt.NewMutex()
	err := rt.Run(func(th *Thread) {
		th.Tick(1)
		mu.Lock(th)
		child := th.Spawn(func(c *Thread) {
			c.Tick(1)
			mu.Lock(c)
			mu.Unlock(c)
		})
		th.Join(child)
		mu.Unlock(th)
	})
	var dd *diag.DeadlockError
	if !errors.As(err, &dd) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dd.Cycle) != 2 {
		t.Fatalf("cycle = %+v, want join/mutex cycle of length 2", dd.Cycle)
	}
	// The cycle alternates: thread 0 -[join(thread 1)]-> thread 1
	// -[mutex#0]-> thread 0 (order may start at either node; normalize).
	byWaiter := map[int]diag.WaitEdge{}
	for _, e := range dd.Cycle {
		byWaiter[e.Waiter] = e
	}
	if byWaiter[0].Resource != "join(thread 1)" || byWaiter[0].Holder != 1 {
		t.Fatalf("edge from 0 = %+v", byWaiter[0])
	}
	if byWaiter[1].Resource != "mutex#0" || byWaiter[1].Holder != 0 {
		t.Fatalf("edge from 1 = %+v", byWaiter[1])
	}
}

// TestCondLostWakeupDeadlock: a waiter with no signaller in sight is a
// collective-wait deadlock — empty cycle, but the snapshot names the cond.
func TestCondLostWakeupDeadlock(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	cv := rt.NewCond(mu)
	err := rt.Run(func(th *Thread) {
		th.Tick(int64(th.ID() + 1))
		if th.ID() == 0 {
			mu.Lock(th)
			cv.Wait(th) // nobody will ever signal
			mu.Unlock(th)
		}
		// Thread 1 exits immediately.
	})
	var dd *diag.DeadlockError
	if !errors.As(err, &dd) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dd.Cycle) != 0 {
		t.Fatalf("cycle = %+v, want none (collective wait)", dd.Cycle)
	}
	if len(dd.Waits) != 1 || dd.Waits[0].Resource != "cond#0 (mutex#0)" {
		t.Fatalf("waits = %+v, want cond#0", dd.Waits)
	}
}

// TestBarrierStarvationDeadlock: a barrier expecting more participants than
// will ever arrive reports the arrival count.
func TestBarrierStarvationDeadlock(t *testing.T) {
	rt := New(2)
	bar := rt.NewBarrier(3)
	err := rt.Run(func(th *Thread) {
		th.Tick(int64(th.ID() + 1))
		bar.Wait(th)
	})
	var dd *diag.DeadlockError
	if !errors.As(err, &dd) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	for _, w := range dd.Waits {
		if w.Resource != "barrier#0 (arrived 2 of 3)" {
			t.Fatalf("waits = %+v, want arrival count 2 of 3", dd.Waits)
		}
	}
}

// TestWatchdogCatchesLivelock: a thread spinning in user code with a frozen
// low clock starves the other thread's turn forever; no one is blocked, so
// only the watchdog can see it.
func TestWatchdogCatchesLivelock(t *testing.T) {
	rt := New(2)
	rt.EnableWatchdog(&WatchdogConfig{
		Interval: time.Millisecond,
		Stall:    50 * time.Millisecond,
		Grace:    100 * time.Millisecond,
	})
	mu := rt.NewMutex()
	stop := make(chan struct{})
	defer close(stop)
	err := rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			// Livelock: never ticks, never synchronizes — its clock 0 starves
			// thread 1's turn forever. Exits only when the test releases it.
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
		th.Tick(1)
		mu.Lock(th) // spins for a turn that never comes
		mu.Unlock(th)
	})
	if !errors.Is(err, diag.ErrStalled) {
		t.Fatalf("err = %v, want watchdog stall", err)
	}
	var we *diag.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("no WatchdogError in %v", err)
	}
	if len(we.Threads) != 2 || we.Threads[0].State != "runnable" {
		t.Fatalf("snapshot = %+v, want thread 0 runnable (livelocked)", we.Threads)
	}
}

// TestWatchdogQuietOnHealthyRun: an armed watchdog must not fire on a run
// that makes progress, and must not leak past Run.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	rt := New(4)
	rt.EnableWatchdog(&WatchdogConfig{Interval: time.Millisecond, Stall: 200 * time.Millisecond})
	mu := rt.NewMutex()
	if err := rt.Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Tick(int64(th.ID() + 1))
			mu.Lock(th)
			mu.Unlock(th)
		}
	}); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
}

// TestDeadlockSameUnderRace exercises the detector repeatedly to give the
// race detector surface area over the fault-delivery path.
func TestDeadlockSameUnderRace(t *testing.T) {
	for i := 0; i < 10; i++ {
		if err := runABBA(t, int64(1000+i)); !errors.Is(err, diag.ErrDeadlock) {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
