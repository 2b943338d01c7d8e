package det

import (
	"fmt"

	"repro/internal/diag"
)

// Deadlock detection over the runtime's wait-for graph.
//
// Every blocking site (mutex wait, barrier arrival, condition wait, join)
// records what the thread is blocked on before it freezes; finish() and
// every block site then run checkDeadlockLocked. The predicate is exact, not
// heuristic: wakeups are only ever produced by live threads executing
// runtime code, so the instant every live thread is blocked, no wakeup can
// ever be produced and the state is a permanent deadlock. Because blocking
// events are turn-gated (and join/finish only freeze deterministic state),
// the blocked state — clocks, resources, holders — is a pure function of the
// program's logic: the same program yields the same report on every run.

// resName returns the deterministic diagnostic name of t's blocked-on
// resource. Caller holds rt.mu.
func (t *Thread) resName() string {
	switch t.blocked {
	case blockMutex:
		return fmt.Sprintf("mutex#%d", t.blockedMu.id)
	case blockBarrier:
		b := t.blockedBar
		return fmt.Sprintf("barrier#%d (arrived %d of %d)", b.id, len(b.arrived), b.n)
	case blockCond:
		return fmt.Sprintf("cond#%d (mutex#%d)", t.blockedCv.id, t.blockedCv.m.id)
	case blockJoin:
		return fmt.Sprintf("join(thread %d)", t.blockedOn.id)
	}
	return ""
}

// resHolder returns the thread owning t's blocked-on resource (mutex holder,
// join target), or nil for collective waits. Caller holds rt.mu. The holder
// is read live, not at block time: a mutex can change hands while t queues.
func (t *Thread) resHolder() *Thread {
	switch t.blocked {
	case blockMutex:
		return t.blockedMu.holder
	case blockJoin:
		return t.blockedOn
	}
	return nil
}

// unblockLocked clears the block bookkeeping and re-admits t to the turn
// predicate. Caller holds rt.mu.
func (t *Thread) unblockLocked() {
	t.blocked = blockNone
	t.blockedMu = nil
	t.blockedBar = nil
	t.blockedCv = nil
	t.blockedOn = nil
	t.excluded.Store(false)
}

// checkDeadlockLocked fires the deadlock fault when every live thread is
// blocked. Caller holds rt.mu.
func (rt *Runtime) checkDeadlockLocked() {
	if rt.fault != nil || rt.nLive == 0 {
		return
	}
	for _, t := range rt.threads {
		if t.done {
			continue
		}
		if t.blocked == blockNone {
			return // someone can still run
		}
		// A joiner whose target already finished is not stuck: it resumes on
		// its next poll (finish() runs this check after setting done, so the
		// joiner may still carry its block mark here).
		if t.blocked == blockJoin && t.blockedOn.done {
			return
		}
	}
	rt.deliverFaultLocked(&diag.DeadlockError{
		Cycle:   rt.findCycleLocked(),
		Waits:   rt.waitEdgesLocked(),
		Threads: rt.snapshotLocked(),
	})
}

// deliverFaultLocked publishes the first fault and wakes every channel-
// blocked thread so it can unwind with the report; turn spinners and join
// pollers observe rt.fault on their next iteration. Caller holds rt.mu.
func (rt *Runtime) deliverFaultLocked(err error) {
	if rt.fault != nil {
		return
	}
	rt.fault = err
	close(rt.faultCh)
	for _, t := range rt.threads {
		switch t.blocked {
		case blockMutex, blockBarrier, blockCond:
			select {
			case t.wake <- struct{}{}:
			default:
			}
		}
	}
}

// waitGrant parks t after an event that enqueued it as a waiter. A normal
// grant clears the block bookkeeping before sending the token; a fault wake
// leaves it set, which is how the waiter distinguishes "granted" from
// "unwind with the report".
func (t *Thread) waitGrant() {
	<-t.wake
	rt := t.rt
	rt.mu.Lock()
	if rt.fault != nil && t.blocked != blockNone {
		err := rt.fault
		t.unblockLocked()
		rt.mu.Unlock()
		panic(err)
	}
	rt.mu.Unlock()
}

// snapshotLocked captures every thread's state for a failure report, in id
// order. Caller holds rt.mu.
func (rt *Runtime) snapshotLocked() []diag.ThreadSnapshot {
	out := make([]diag.ThreadSnapshot, 0, len(rt.threads))
	for _, t := range rt.threads {
		s := diag.ThreadSnapshot{ID: t.id, Clock: t.clock.Load(), Holder: -1}
		switch {
		case t.panicked:
			s.State = "panicked"
		case t.done:
			s.State = "done"
		case t.blocked != blockNone:
			s.State = "blocked"
			s.BlockedOn = t.resName()
			if h := t.resHolder(); h != nil {
				s.Holder = h.id
			}
		default:
			s.State = "runnable"
		}
		if t.lastAcqRes != "" {
			s.LastAcq = fmt.Sprintf("%s@%d", t.lastAcqRes, t.lastAcqClock)
		}
		out = append(out, s)
	}
	return out
}

// waitEdgesLocked lists every blocked thread's wait-for edge, in id order.
// Caller holds rt.mu.
func (rt *Runtime) waitEdgesLocked() []diag.WaitEdge {
	var out []diag.WaitEdge
	for _, t := range rt.threads {
		if t.done || t.blocked == blockNone {
			continue
		}
		e := diag.WaitEdge{Waiter: t.id, Resource: t.resName(), Holder: -1}
		if h := t.resHolder(); h != nil {
			e.Holder = h.id
		}
		out = append(out, e)
	}
	return out
}

// findCycleLocked returns the first cycle of the wait-for graph (thread →
// live holder of its blocked-on resource). Caller holds rt.mu.
func (rt *Runtime) findCycleLocked() []diag.WaitEdge {
	next := func(i int) int {
		if h := rt.threads[i].successorLocked(); h != nil {
			return h.id
		}
		return -1
	}
	edge := func(i int) diag.WaitEdge {
		w := rt.threads[i]
		e := diag.WaitEdge{Waiter: w.id, Resource: w.resName(), Holder: -1}
		if h := w.resHolder(); h != nil {
			e.Holder = h.id
		}
		return e
	}
	return diag.FindCycle(len(rt.threads), next, edge)
}

// successorLocked returns the live thread that t's progress depends on, or
// nil (collective wait, done holder, not blocked). Caller holds rt.mu.
func (t *Thread) successorLocked() *Thread {
	if t.done || t.blocked == blockNone {
		return nil
	}
	h := t.resHolder()
	if h == nil || h.done {
		return nil
	}
	return h
}
