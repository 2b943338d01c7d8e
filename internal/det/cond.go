package det

import (
	"fmt"

	"repro/internal/diag"
)

// Cond is a deterministic condition variable bound to a Mutex. The paper
// lists condition variables as unimplemented in its evaluation ("we have not
// yet implemented other synchronization operations, such as condition
// variables", §V); this is the natural extension under the same turn-gated
// event model: waits and signals are totally ordered by (clock, id), and a
// signalled waiter re-enters the mutex queue deterministically.
type Cond struct {
	rt *Runtime
	// id is the deterministic diagnostic identity ("cond#id" in reports).
	id int
	m  *Mutex

	waiters []*Thread
}

// NewCond creates a condition variable bound to m.
func (rt *Runtime) NewCond(m *Mutex) *Cond {
	if m.rt != rt {
		panic("det: cond bound to a mutex from another runtime")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c := &Cond{rt: rt, id: rt.nextCond, m: m}
	rt.nextCond++
	return c
}

// name is the condition variable's diagnostic identity.
func (c *Cond) name() string { return fmt.Sprintf("cond#%d", c.id) }

// checkHolderLocked panics with a typed misuse error when t does not hold
// the bound mutex. Caller holds rt.mu via event.
func (c *Cond) checkHolderLocked(op string, t *Thread) {
	if !c.m.held || c.m.holder != t {
		panic(misuse(op, t, diag.ErrNotHeld,
			fmt.Sprintf("%s requires holding %s", c.name(), c.m.name())))
	}
}

// Wait atomically releases the mutex and blocks until signalled; it
// reacquires the mutex (via the deterministic grant queue) before returning.
// The caller must hold the mutex.
func (c *Cond) Wait(t *Thread) {
	if c.rt != t.rt {
		panic(misuse("Cond.Wait", t, diag.ErrCrossRuntime, c.name()))
	}
	c.rt.event(t, func() bool {
		c.checkHolderLocked("Cond.Wait", t)
		t.clock.Add(1)
		c.waiters = append(c.waiters, t)
		t.blocked = blockCond
		t.blockedCv = c
		t.excluded.Store(true)
		c.m.releaseLocked(t)
		c.rt.checkDeadlockLocked()
		return true
	})
	// Woken only by a mutex grant: Signal moves us to the mutex queue and an
	// Unlock (or releaseLocked) eventually grants us the lock. A fault wake
	// unwinds with the report instead.
	t.waitGrant()
}

// Signal wakes the first waiter (deterministic arrival order) by moving it
// to the mutex's grant queue; it acquires the mutex when the current holder
// releases. The caller must hold the mutex (matching pthread semantics where
// signalling under the lock gives deterministic behavior).
func (c *Cond) Signal(t *Thread) {
	if c.rt != t.rt {
		panic(misuse("Cond.Signal", t, diag.ErrCrossRuntime, c.name()))
	}
	c.rt.event(t, func() bool {
		c.checkHolderLocked("Cond.Signal", t)
		t.clock.Add(1)
		if len(c.waiters) > 0 {
			w := c.waiters[0]
			c.waiters = c.waiters[1:]
			c.m.waiters = append(c.m.waiters, w)
			// The waiter now depends on the mutex, not the cond: reflect that
			// in the wait-for graph so lost-wakeup deadlocks name the lock.
			w.blocked = blockMutex
			w.blockedMu = c.m
			w.blockedCv = nil
		}
		return true
	})
}

// Broadcast wakes all waiters, preserving their deterministic order.
func (c *Cond) Broadcast(t *Thread) {
	if c.rt != t.rt {
		panic(misuse("Cond.Broadcast", t, diag.ErrCrossRuntime, c.name()))
	}
	c.rt.event(t, func() bool {
		c.checkHolderLocked("Cond.Broadcast", t)
		t.clock.Add(1)
		if len(c.waiters) > 0 {
			c.m.waiters = append(c.m.waiters, c.waiters...)
			for _, w := range c.waiters {
				w.blocked = blockMutex
				w.blockedMu = c.m
				w.blockedCv = nil
			}
			c.waiters = nil
		}
		return true
	})
}
