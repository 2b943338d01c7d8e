package det

import (
	"fmt"

	"repro/internal/diag"
)

// Mutex is a deterministic mutual-exclusion lock. For a race-free program
// with a fixed input, the global sequence of (thread, acquisition) pairs on
// every Mutex is identical across runs (weak determinism).
type Mutex struct {
	rt *Runtime
	// id is the deterministic diagnostic identity ("mutex#id" in reports),
	// assigned in creation order.
	id int

	held   bool
	holder *Thread
	// waiters are blocked threads in deterministic arrival order (arrivals
	// are turn-gated, so this order is a function of logical clocks only).
	waiters []*Thread

	// acquisitions counts grants on this mutex.
	acquisitions int64

	// observer, when set, is called at every acquisition (under the runtime
	// lock) with the acquiring thread and its post-acquisition clock. Used by
	// package trace.
	observer func(threadID int, clock int64)
}

// NewMutex creates a deterministic mutex managed by rt.
func (rt *Runtime) NewMutex() *Mutex {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := &Mutex{rt: rt, id: rt.nextMutex}
	rt.nextMutex++
	return m
}

// SetObserver installs fn to observe acquisitions. Must be called before the
// mutex is shared.
func (m *Mutex) SetObserver(fn func(threadID int, clock int64)) { m.observer = fn }

// Acquisitions returns how many times the mutex has been acquired.
func (m *Mutex) Acquisitions() int64 {
	m.rt.mu.Lock()
	defer m.rt.mu.Unlock()
	return m.acquisitions
}

// name is the mutex's diagnostic identity.
func (m *Mutex) name() string { return fmt.Sprintf("mutex#%d", m.id) }

// Lock acquires m deterministically: the thread waits for its global turn
// (clock minimal, ties by id); if the mutex is free it takes it and ticks;
// otherwise it enqueues with its clock frozen and blocks until the releaser
// grants it, resuming at the frozen clock plus the acquisition tick. The
// paper's semantics: clock paused while waiting, resumed after acquisition.
func (m *Mutex) Lock(t *Thread) {
	if m.rt != t.rt {
		panic(misuse("Mutex.Lock", t, diag.ErrCrossRuntime, m.name()))
	}
	blocked := false
	m.rt.event(t, func() bool {
		if !m.held {
			m.take(t, t.clock.Load()+1)
			return true
		}
		m.waiters = append(m.waiters, t)
		t.blocked = blockMutex
		t.blockedMu = m
		t.excluded.Store(true)
		m.rt.checkDeadlockLocked()
		blocked = true
		return true
	})
	if blocked {
		// The granter set our clock, cleared the block bookkeeping and woke
		// us; a fault wake instead leaves the bookkeeping set and waitGrant
		// unwinds with the report.
		t.waitGrant()
	}
}

// take records the acquisition. Caller holds rt.mu and the turn.
func (m *Mutex) take(t *Thread, newClock int64) {
	m.held = true
	m.holder = t
	m.acquisitions++
	t.clock.Store(newClock)
	t.lastAcqRes = m.name()
	t.lastAcqClock = newClock
	m.rt.acquisitions.Add(1)
	m.rt.onAcquisitionLocked(m.id, t.id, newClock)
	if m.observer != nil {
		m.observer(t.id, newClock)
	}
}

// Unlock releases m. The release is itself turn-gated, which totally orders
// all synchronization events by (clock, id) and makes the waiter handoff
// deterministic. If waiters are queued, the first one is granted with clock
// frozen + 1, whatever the releaser's clock.
func (m *Mutex) Unlock(t *Thread) {
	if m.rt != t.rt {
		panic(misuse("Mutex.Unlock", t, diag.ErrCrossRuntime, m.name()))
	}
	m.rt.event(t, func() bool {
		if !m.held {
			panic(misuse("Mutex.Unlock", t, diag.ErrNotHeld, m.name()+" is not locked"))
		}
		if m.holder != t {
			panic(misuse("Mutex.Unlock", t, diag.ErrNotHeld,
				fmt.Sprintf("%s is held by thread %d", m.name(), m.holder.id)))
		}
		t.clock.Add(1)
		m.releaseLocked(t)
		return true
	})
}

// releaseLocked hands the mutex to the first queued waiter, or frees it.
// Caller holds rt.mu and the turn; t is the current holder. Shared by Unlock
// and Cond.Wait.
func (m *Mutex) releaseLocked(t *Thread) {
	if len(m.waiters) == 0 {
		m.held = false
		m.holder = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	// Kendo semantics: the waiter's clock was paused while blocked; it
	// resumes at its frozen value plus the acquisition tick. The value is
	// independent of how long the wait physically lasted, so determinism is
	// preserved.
	newClock := next.clock.Load() + 1
	m.take(next, newClock)
	next.unblockLocked()
	next.wake <- struct{}{}
}

// TryLock acquires m if it is free at the thread's turn; it never blocks.
// Returns whether the lock was taken. Deterministic for the same reason Lock
// is: the decision happens at a totally-ordered event.
func (m *Mutex) TryLock(t *Thread) bool {
	if m.rt != t.rt {
		panic(misuse("Mutex.TryLock", t, diag.ErrCrossRuntime, m.name()))
	}
	ok := false
	m.rt.event(t, func() bool {
		t.clock.Add(1)
		if !m.held {
			m.take(t, t.clock.Load())
			ok = true
		}
		return true
	})
	return ok
}
