// Package det is the deterministic execution runtime: Kendo's weak
// determinism (deterministic lock acquisition order for race-free programs)
// for real goroutines, driven by the logical clocks that the DetLock pass —
// or explicit Tick calls — provide.
//
// The paper states the rule (§II): "a thread may complete a synchronization
// operation only when its clock becomes less than those of the other
// threads, with ties broken with thread IDs; the clock is paused when
// waiting for a lock and resumed after the lock is acquired."
//
// This package makes that rule airtight under Go's non-deterministic
// scheduler by treating every synchronization operation as a turn-gated
// event:
//
//   - A thread's published logical clock advances only through Tick (the
//     instrumentation) and through synchronization events.
//   - An event may execute only when the thread's (clock, id) pair is the
//     minimum among all non-excluded threads. Threads blocked inside a
//     synchronization operation (lock waiters, barrier arrivals, joiners)
//     are excluded, with their clocks frozen, so the system cannot deadlock
//     on a waiter's frozen clock.
//   - Contended locks grant FIFO in waiter-arrival order; since arrivals are
//     themselves turn-gated, that order — and therefore the acquisition
//     order — is a deterministic function of the program's logical clocks,
//     regardless of physical scheduling.
//   - A woken waiter's clock was paused while it waited and resumes at its
//     frozen value plus the acquisition tick (Kendo's pause/resume rule), a
//     value independent of how long it physically waited.
//
// Physical timing affects only wall-clock duration, never the synchronization
// order or the clock values — which is exactly weak determinism.
//
// # Robustness
//
// Weak determinism is defined for race-free, well-behaved programs — but the
// runtime must also fail well on programs that are not. Three mechanisms
// guarantee the invariant "det never hangs: every stuck state terminates
// with a structured report" (see internal/diag):
//
//   - Deadlock detection: every blocking site registers what the thread is
//     blocked on; the moment every live thread is blocked the runtime
//     assembles a diag.DeadlockError (wait-for cycle + per-thread snapshot)
//     and delivers it to all threads. Because blocking events are turn-gated,
//     the blocked state — and therefore the report — is identical on every
//     run.
//   - Progress watchdog (optional, zero overhead when disabled): detects
//     livelocks the wait-for graph cannot see (a spinning thread that never
//     advances its clock) and produces the same snapshot report.
//   - Panic containment: Run and Spawn recover user panics, tear the failed
//     thread out of the turn predicate (finish/exclusion), and surface a
//     diag.ThreadPanicError; survivors either finish or hit the deadlock
//     detector. API misuse panics with typed diag.MisuseError values.
package det

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
	"repro/internal/trace"
)

// Runtime coordinates a set of deterministic threads.
type Runtime struct {
	mu      sync.Mutex
	threads []*Thread
	nLive   int

	// acquisitions counts lock acquisition events; used by traces and stats.
	acquisitions atomic.Int64

	// fault is the first global failure (deadlock or watchdog stall);
	// faultCh is closed when it is set. Guarded by mu.
	fault   error
	faultCh chan struct{}
	// panics collects contained user panics, guarded by mu.
	panics []*diag.ThreadPanicError

	// nextMutex/nextBarrier/nextCond assign deterministic diagnostic ids to
	// synchronization objects. Guarded by mu.
	nextMutex   int
	nextBarrier int
	nextCond    int

	// watchdog, when non-nil, enables the progress monitor for Run.
	watchdog *WatchdogConfig

	// running marks an active Run; detector configuration (RecordSchedule,
	// SetReplayGuard) is rejected mid-run with a typed misuse error.
	// Guarded by mu.
	running bool
	// recordTo, when non-nil, receives every lock acquisition. Guarded by mu.
	recordTo *trace.Schedule
	// replay/replayIdx/replayArmed implement the schedule-divergence guard
	// (see divergence.go). Guarded by mu.
	replay      []trace.Event
	replayIdx   int
	replayArmed bool
}

// blockKind says what a blocked thread is waiting on.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockMutex
	blockBarrier
	blockCond
	blockJoin
)

// Thread is one deterministic thread of execution. All methods must be called
// only from the goroutine running the thread.
type Thread struct {
	rt *Runtime
	id int

	clock atomic.Int64
	// excluded marks the thread invisible to the turn predicate: it is
	// blocked inside a synchronization operation, or finished.
	excluded atomic.Bool
	// wake delivers grant notifications to a blocked thread.
	wake chan struct{}

	done bool
	// finalClock is the clock at completion, read by joiners.
	finalClock int64

	// Block bookkeeping for the wait-for graph; guarded by rt.mu. Exactly one
	// of the object pointers is non-nil while blocked.
	blocked    blockKind
	blockedMu  *Mutex
	blockedBar *Barrier
	blockedCv  *Cond
	blockedOn  *Thread // join target

	// panicked/panicErr record a contained panic; guarded by rt.mu.
	panicked bool
	panicErr *diag.ThreadPanicError

	// lastAcqRes/lastAcqClock describe the most recent lock acquisition, for
	// failure snapshots. Guarded by rt.mu.
	lastAcqRes   string
	lastAcqClock int64
}

// New creates a runtime with n threads, ids 0..n-1, all clocks zero.
func New(n int) *Runtime {
	if n <= 0 {
		panic("det: runtime needs at least one thread")
	}
	rt := &Runtime{faultCh: make(chan struct{})}
	for i := 0; i < n; i++ {
		rt.threads = append(rt.threads, newThread(rt, i))
	}
	rt.nLive = n
	return rt
}

func newThread(rt *Runtime, id int) *Thread {
	return &Thread{rt: rt, id: id, wake: make(chan struct{}, 1)}
}

// NumThreads returns the number of threads ever registered.
func (rt *Runtime) NumThreads() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.threads)
}

// Acquisitions returns the total number of deterministic lock acquisitions.
func (rt *Runtime) Acquisitions() int64 { return rt.acquisitions.Load() }

// Run executes body concurrently on every thread (SPMD style) and returns
// when all threads have finished. It is the normal entry point:
//
//	rt := det.New(4)
//	err := rt.Run(func(t *det.Thread) { ... t.Tick(...) ... mu.Lock(t) ... })
//
// Run returns nil on a clean run. A user panic on any thread is recovered,
// the thread is deterministically excluded, and Run returns a
// *diag.ThreadPanicError (survivors keep running to completion — or to the
// deadlock detector, if the failed thread held locks they need). If every
// live thread becomes blocked, Run returns a *diag.DeadlockError naming the
// wait-for cycle; if the watchdog (EnableWatchdog) detects a stall, Run
// returns a *diag.WatchdogError. Multiple failures are joined with
// errors.Join, deadlock/stall first, then panics by thread id.
//
// In the pathological case of a stall inside user code that never calls back
// into the runtime, Run abandons the stuck goroutines after the watchdog's
// grace period — the caller gets the report; Go cannot kill the goroutines.
func (rt *Runtime) Run(body func(t *Thread)) error {
	var wg sync.WaitGroup
	rt.mu.Lock()
	rt.running = true
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	stopWatchdog, grace := rt.startWatchdog()
	for _, t := range threads {
		wg.Add(1)
		go func(t *Thread) {
			defer wg.Done()
			defer t.finish()
			defer t.containPanic()
			body(t)
		}(t)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-rt.faultCh:
		// Threads blocked or spinning inside the runtime observe the fault
		// and unwind; wait for them, but give up on threads stuck in user
		// code that never re-enters the runtime.
		select {
		case <-done:
		case <-time.After(grace):
		}
	}
	stopWatchdog()
	rt.mu.Lock()
	rt.running = false
	rt.checkReplayCompleteLocked()
	rt.mu.Unlock()
	return rt.Err()
}

// Err returns the runtime's failure state: the global fault (deadlock or
// stall) joined with any contained panics, ordered by thread id; nil when
// the runtime is healthy.
func (rt *Runtime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	errs := make([]error, 0, 1+len(rt.panics))
	if rt.fault != nil {
		errs = append(errs, rt.fault)
	}
	panics := append([]*diag.ThreadPanicError(nil), rt.panics...)
	sort.Slice(panics, func(i, j int) bool { return panics[i].ThreadID < panics[j].ThreadID })
	for _, p := range panics {
		errs = append(errs, p)
	}
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	default:
		return errors.Join(errs...)
	}
}

// Panics returns the contained user panics, ordered by thread id.
func (rt *Runtime) Panics() []*diag.ThreadPanicError {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := append([]*diag.ThreadPanicError(nil), rt.panics...)
	sort.Slice(out, func(i, j int) bool { return out[i].ThreadID < out[j].ThreadID })
	return out
}

// containPanic recovers a panic on t's goroutine and records it. Fault
// propagation panics (the deadlock/watchdog report delivered to blocked
// threads) are unwinding, not new failures, and are not re-recorded.
func (t *Thread) containPanic() {
	r := recover()
	if r == nil {
		return
	}
	stack := debug.Stack()
	rt := t.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err, ok := r.(error); ok && rt.fault != nil && errors.Is(err, rt.fault) {
		return
	}
	pe := &diag.ThreadPanicError{
		ThreadID: t.id,
		Clock:    t.clock.Load(),
		Value:    r,
		Stack:    string(stack),
	}
	t.panicked = true
	t.panicErr = pe
	rt.panics = append(rt.panics, pe)
}

// misuse builds a typed API-contract-violation error for t.
func misuse(op string, t *Thread, kind error, detail string) *diag.MisuseError {
	return &diag.MisuseError{
		Op:       op,
		ThreadID: t.id,
		Clock:    t.clock.Load(),
		Kind:     kind,
		Detail:   detail,
	}
}

// ID returns the deterministic thread id.
func (t *Thread) ID() int { return t.id }

// Clock returns the thread's current logical clock.
func (t *Thread) Clock() int64 { return t.clock.Load() }

// Tick advances the logical clock by n units. The DetLock pass's clockadd
// instructions map to Tick; hand-written programs call it to account for the
// work between synchronization operations ("one instruction equals one
// logical clock count", §III-A). n must be non-negative.
func (t *Thread) Tick(n int64) {
	if n < 0 {
		panic(misuse("Thread.Tick", t, diag.ErrNegativeTick, fmt.Sprintf("Tick(%d)", n)))
	}
	t.clock.Add(n)
}

// finish marks the thread completed: excluded from turn computation forever.
// Joiners and turn spinners poll state, so no wakeup channel is involved —
// the wake channel carries only lock/condvar grants, exactly one token per
// grant, which keeps grant delivery free of spurious wakeups. If the
// survivors are now all blocked (this thread was their only way forward —
// e.g. it died holding a mutex), the deadlock detector fires here.
func (t *Thread) finish() {
	rt := t.rt
	rt.mu.Lock()
	t.done = true
	t.finalClock = t.clock.Load()
	t.excluded.Store(true)
	rt.nLive--
	rt.checkDeadlockLocked()
	rt.mu.Unlock()
}

// hasTurn reports whether t's (clock, id) is minimal among non-excluded
// threads. Caller must hold rt.mu.
func (rt *Runtime) hasTurn(t *Thread) bool {
	c := t.clock.Load()
	for _, o := range rt.threads {
		if o == t || o.excluded.Load() {
			continue
		}
		oc := o.clock.Load()
		if oc < c || (oc == c && o.id < t.id) {
			return false
		}
	}
	return true
}

// event runs fn while t holds the global turn, under rt.mu. fn returns true
// when the event completed; returning false re-queues the turn wait (used by
// operations that discover they must block). The spin uses Gosched rather
// than condition variables: ticks are lock-free atomic adds, so there is no
// cheap place to broadcast from — this mirrors Kendo's spinning waiters.
// A delivered fault (deadlock elsewhere, watchdog stall) unwinds the spinner
// by panicking with the report; Run's containment catches it.
func (rt *Runtime) event(t *Thread, fn func() bool) {
	for {
		rt.mu.Lock()
		if rt.fault != nil {
			err := rt.fault
			rt.mu.Unlock()
			panic(err)
		}
		if rt.hasTurn(t) {
			done := func() bool {
				// Release rt.mu even if fn panics (e.g. unlock of an unheld
				// mutex), so the runtime stays usable for other threads.
				defer rt.mu.Unlock()
				return fn()
			}()
			if done {
				return
			}
			continue
		}
		rt.mu.Unlock()
		runtime.Gosched()
	}
}

// Spawn creates a new deterministic thread running fn, with the next
// sequential id and clock = parent clock + 1. The spawn itself is a
// turn-gated event, so ids are assigned deterministically. It returns a
// handle for Join. Panics in fn are contained exactly as in Run and
// retrievable from the child's Join result.
func (t *Thread) Spawn(fn func(*Thread)) *Thread {
	rt := t.rt
	var child *Thread
	rt.event(t, func() bool {
		child = newThread(rt, len(rt.threads))
		child.clock.Store(t.clock.Load() + 1)
		rt.threads = append(rt.threads, child)
		rt.nLive++
		t.clock.Add(1)
		return true
	})
	go func() {
		defer child.finish()
		defer child.containPanic()
		fn(child)
	}()
	return child
}

// Join blocks until child finishes, then advances the joiner's clock to
// max(own, child's final clock) + 1. The joiner is excluded while waiting so
// the child's synchronization is not starved by the joiner's frozen clock;
// joining performs no synchronization decision itself, and the resume clock
// depends only on deterministic values, so no turn is needed.
//
// Joining a nil handle, a thread of another runtime, or the thread itself
// panics with a typed *diag.MisuseError (contained by Run). If the child
// panicked, Join returns its *diag.ThreadPanicError; otherwise nil.
func (t *Thread) Join(child *Thread) error {
	rt := t.rt
	if child == nil || child.rt != rt {
		panic(misuse("Thread.Join", t, diag.ErrBadJoin, "target is nil or belongs to another runtime"))
	}
	if child == t {
		panic(misuse("Thread.Join", t, diag.ErrSelfJoin, ""))
	}
	rt.mu.Lock()
	t.blocked = blockJoin
	t.blockedOn = child
	t.excluded.Store(true)
	rt.checkDeadlockLocked()
	rt.mu.Unlock()
	for {
		rt.mu.Lock()
		if rt.fault != nil {
			err := rt.fault
			t.unblockLocked()
			rt.mu.Unlock()
			panic(err)
		}
		if child.done {
			t.clock.Store(maxInt64(t.clock.Load(), child.finalClock) + 1)
			t.unblockLocked()
			perr := child.panicErr
			rt.mu.Unlock()
			if perr != nil {
				return perr
			}
			return nil
		}
		rt.mu.Unlock()
		runtime.Gosched()
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// String identifies the thread for diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("det.Thread(id=%d clock=%d)", t.id, t.Clock())
}

// Rand is internal/detrand's generator under the name this package exported
// it by first; it remains only because bench/ uses it.
type Rand = detrand.Rand
