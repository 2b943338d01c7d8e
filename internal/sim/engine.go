// Package sim is a deterministic discrete-event simulator of N hardware
// threads. It produces the cycle counts behind the paper's evaluation:
// physical time advances by the cost model's per-instruction cycles (clock
// updates included), and deterministic execution's extra cost appears as the
// cycles threads spend waiting for other threads' logical clocks to pass
// them — exactly the quantity the paper's Table I and Figure 14/15 measure.
//
// The engine is sequential and fully deterministic: it always steps the
// runnable thread with the smallest (physical time, id), so identical
// programs produce identical cycle counts and identical lock-acquisition
// traces on every run.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/diag"
)

// StepKind tags what a program thread produced when stepped.
type StepKind uint8

// Step kinds yielded by Program implementations.
const (
	// StepAdvance: the thread executed instructions (Cycles) and possibly
	// published a logical-clock increment (ClockDelta) at the END of the
	// span — programs yield at every clock-update point, so publication
	// times are exact.
	StepAdvance StepKind = iota
	// StepLock: the thread wants lock Obj. Cycles covers work before the op.
	StepLock
	// StepUnlock: the thread releases lock Obj.
	StepUnlock
	// StepBarrier: the thread arrives at barrier Obj.
	StepBarrier
	// StepDone: the thread finished.
	StepDone
	// StepSpawn: the thread creates a new thread; NewProg builds its
	// Program given the engine-assigned id, and *SpawnDst (when non-nil)
	// receives that id as the spawn handle.
	StepSpawn
	// StepJoin: the thread waits for thread Obj to finish.
	StepJoin
)

// Step is one yield from a simulated thread.
type Step struct {
	Kind       StepKind
	Cycles     int64 // physical cycles consumed by this span
	ClockDelta int64 // logical clock increment published at span end
	Obj        int   // lock/barrier id for sync steps; target thread for join

	// NewProg builds the spawned thread's program from its assigned id
	// (StepSpawn only).
	NewProg func(id int) Program
	// SpawnDst, when non-nil, receives the spawned thread's id.
	SpawnDst *int64
}

// Program is a steppable simulated thread (implemented by package interp).
// Step is called only while the thread is runnable.
type Program interface {
	Step() (Step, error)
}

// StepperInto is an optional Program extension: StepInto writes the step
// into *out instead of returning it, sparing the per-event copy of the Step
// struct through the interface return. The engine uses it when available
// (detected once per thread, never under Config.Reference — the reference
// scheduler exercises the original interface). On error *out is
// unspecified. Semantics are otherwise identical to Step.
type StepperInto interface {
	StepInto(out *Step) error
}

// SyncObserver receives synchronization events as the engine resolves them,
// in resolution order. The race detector (package interp) advances its
// vector clocks here; the hooks fire at the exact points the corresponding
// happens-before edges are created. Callbacks run synchronously on the
// engine's (single) thread and must not retain the BarrierReleased slice.
type SyncObserver interface {
	// Acquired fires when thread is granted lock (including waiter handoff).
	Acquired(thread, lock int)
	// Released fires when thread releases lock, before any handoff grant.
	Released(thread, lock int)
	// BarrierReleased fires when a barrier opens, with every participant.
	BarrierReleased(threads []int)
	// Spawned fires when parent creates child, before child's first step.
	Spawned(parent, child int)
	// Joined fires when waiter's join on target completes.
	Joined(waiter, target int)
}

// LockPolicy selects how contended locks are granted.
type LockPolicy uint8

// Lock policies.
const (
	// PolicyFCFS grants in request order (plain pthread-like mutex);
	// deterministic inside the simulator, used for baseline runs.
	PolicyFCFS LockPolicy = iota
	// PolicyDet implements Kendo's rule: an acquire decision happens only
	// when the requester's (logical clock, id) is minimal among non-excluded
	// threads; waiters queue with frozen clocks and resume at frozen+1,
	// whatever the releaser's clock.
	PolicyDet
)

// Config parameterizes a simulation run.
type Config struct {
	Policy LockPolicy
	// NumLocks / NumBarriers size the sync object tables.
	NumLocks    int
	NumBarriers int
	// MaxSteps bounds total engine steps (runaway guard); 0 means default.
	MaxSteps int64
	// RecordTrace enables the acquisition trace (lock id, thread, clock).
	RecordTrace bool
	// Observer, when non-nil, is notified of every synchronization event.
	Observer SyncObserver
	// Cancel, when non-nil, is polled every cancelEvery engine steps; a
	// non-nil return aborts the run with that error wrapped in ErrCanceled.
	// This is the cooperative cancellation point the service layer's job
	// deadlines thread down to (a context.Context's Err). Cancellation never
	// mutates simulation state, so an uncancelled run is bitwise identical
	// with or without the hook installed.
	Cancel func() error
	// Reference selects the original O(threads) scheduling implementation
	// (linear pickRunnable scan, re-collected sort.Slice acquirer ordering)
	// instead of the indexed run-queue heap. Both orderings are total on
	// (key, id) with distinct ids, so schedules are byte-identical; the
	// reference path is the oracle for the equivalence property tests.
	Reference bool
}

// Acquisition is one lock grant, for determinism checking. The JSON tags
// define the wire format used when traces are persisted (service layer,
// examples/replay).
type Acquisition struct {
	Lock   int   `json:"lock"`
	Thread int   `json:"thread"`
	Clock  int64 `json:"clock"` // logical clock right after the grant (0 under FCFS)
	Phys   int64 `json:"phys"`  // physical grant time
}

// Stats aggregates a finished run.
type Stats struct {
	// Makespan is the maximum per-thread finish time: the run's wall clock.
	Makespan int64
	// PerThreadCycles is each thread's finish time.
	PerThreadCycles []int64
	// WaitCycles is the total cycles threads spent blocked or spinning on
	// sync (the deterministic-execution overhead plus contention).
	WaitCycles int64
	// Acquisitions counts lock grants.
	Acquisitions int64
	// BarrierEpisodes counts completed barrier releases.
	BarrierEpisodes int64
	// Steps counts engine iterations.
	Steps int64
	// Trace holds the acquisition sequence when Config.RecordTrace is set.
	Trace []Acquisition
	// FinalClocks is each thread's logical clock at completion — the total
	// accumulated clock, used by conservation tests (precise optimizations
	// must not change it).
	FinalClocks []int64
}

// thread run states.
type tstatus uint8

const (
	tsRunnable tstatus = iota
	tsAcquiring
	tsBlocked // queued on a held lock: excluded, frozen clock
	tsBarrier // arrived at a barrier: excluded
	tsJoining // waiting for another thread to finish: excluded
	tsDone
)

type tstate struct {
	id     int
	prog   Program
	into   StepperInto // non-nil when prog implements StepperInto (optimized path)
	status tstatus
	phys   int64
	clock  int64

	wantLock int   // lock id while acquiring/blocked
	readyAt  int64 // phys time at which the pending grant decision matured
	waitFrom int64 // phys time the thread began waiting (for WaitCycles)

	// hpos is the thread's index in the engine's run-queue heap, -1 while
	// not enqueued. A thread's phys never changes while enqueued (wakeups
	// set phys before the push; the stepped thread is popped first), so the
	// heap never needs a decrease-key.
	hpos int32
}

type lockState struct {
	held    bool
	holder  int
	waiters []int // blocked thread ids in deterministic enqueue order
}

type barState struct {
	arrived []int
}

// cancelEvery is the polling stride for Config.Cancel, in engine steps:
// coarse enough to keep the hot loop branch-predictable, fine enough that a
// runaway simulation notices its deadline within microseconds.
const cancelEvery = 1024

// Engine runs a set of Programs to completion under a Config.
type Engine struct {
	cfg     Config
	threads []*tstate
	// parties is the arrival count that releases a barrier: the initial
	// program count, not len(threads), which grows with spawns.
	parties  int
	locks    []lockState
	barriers []barState
	stats    Stats

	// runq is the run-queue min-heap ordered by (phys, id): exactly the
	// runnable threads, except the one currently being stepped. Empty and
	// unused under Config.Reference.
	runq []*tstate
	// acq tracks threads in tsAcquiring so settleAcquirers — which runs
	// after every engine step — is O(1) in the common no-acquirer case
	// instead of rescanning and re-sorting every thread. acqScratch is the
	// reused (clock, id)-sorted snapshot for settlement passes.
	acq        []*tstate
	acqScratch []*tstate
}

// ErrStepLimit is wrapped by Run when MaxSteps is exceeded.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// ErrCanceled is wrapped by Run when Config.Cancel reports cancellation; the
// hook's own error (typically a context error) is wrapped alongside it.
var ErrCanceled = errors.New("sim: run canceled")

// New creates an engine over the given per-thread programs.
func New(cfg Config, progs []Program) *Engine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	e := &Engine{
		cfg:      cfg,
		parties:  len(progs),
		locks:    make([]lockState, cfg.NumLocks),
		barriers: make([]barState, cfg.NumBarriers),
	}
	for i, p := range progs {
		t := &tstate{id: i, prog: p, hpos: -1}
		if !cfg.Reference {
			t.into, _ = p.(StepperInto)
		}
		e.threads = append(e.threads, t)
		e.heapPush(t)
	}
	e.stats.PerThreadCycles = make([]int64, len(progs))
	e.stats.FinalClocks = make([]int64, len(progs))
	return e
}

// heapPush enqueues a runnable thread on the run queue; no-op under
// Config.Reference and when the thread is already enqueued.
func (e *Engine) heapPush(t *tstate) {
	if e.cfg.Reference || t.hpos >= 0 {
		return
	}
	t.hpos = int32(len(e.runq))
	e.runq = append(e.runq, t)
	e.heapUp(int(t.hpos))
}

// heapPop removes and returns the minimum-(phys, id) thread, nil when empty.
func (e *Engine) heapPop() *tstate {
	n := len(e.runq)
	if n == 0 {
		return nil
	}
	top := e.runq[0]
	last := e.runq[n-1]
	e.runq[n-1] = nil
	e.runq = e.runq[:n-1]
	if n > 1 {
		e.runq[0] = last
		last.hpos = 0
		e.heapDown(0)
	}
	top.hpos = -1
	return top
}

// heapLess orders the run queue by (phys, id); ids are distinct, so the
// order is total and the heap minimum equals the reference scan's pick.
func heapLess(a, b *tstate) bool {
	if a.phys != b.phys {
		return a.phys < b.phys
	}
	return a.id < b.id
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(e.runq[i], e.runq[parent]) {
			break
		}
		e.runq[i], e.runq[parent] = e.runq[parent], e.runq[i]
		e.runq[i].hpos = int32(i)
		e.runq[parent].hpos = int32(parent)
		i = parent
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.runq)
	for {
		least := i
		if l := 2*i + 1; l < n && heapLess(e.runq[l], e.runq[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && heapLess(e.runq[r], e.runq[least]) {
			least = r
		}
		if least == i {
			return
		}
		e.runq[i], e.runq[least] = e.runq[least], e.runq[i]
		e.runq[i].hpos = int32(i)
		e.runq[least].hpos = int32(least)
		i = least
	}
}

// Run executes the simulation to completion and returns the statistics.
func (e *Engine) Run() (*Stats, error) {
	ref := e.cfg.Reference
	// st lives outside the loop: its address crosses the StepInto interface
	// call, so an in-loop declaration would escape and heap-allocate once
	// per engine event. Every step assigns the full struct, so reuse is
	// safe.
	var st Step
	var err error
	for {
		var t *tstate
		if ref {
			t = e.pickRunnable()
		} else if len(e.runq) > 0 {
			// Peek, don't pop: the overwhelmingly common StepAdvance case
			// re-enqueues the stepped thread immediately, so leaving it at
			// the root and sifting once after its key grows replaces a full
			// pop+push pair. No heap mutation can occur between the peek and
			// the sift below (Step runs program code only).
			t = e.runq[0]
		}
		if t == nil {
			if e.allDone() {
				break
			}
			return nil, e.deadlockError()
		}
		e.stats.Steps++
		if e.stats.Steps > e.cfg.MaxSteps {
			return nil, fmt.Errorf("%w (%d)", ErrStepLimit, e.cfg.MaxSteps)
		}
		if e.cfg.Cancel != nil && e.stats.Steps%cancelEvery == 0 {
			if cerr := e.cfg.Cancel(); cerr != nil {
				return nil, fmt.Errorf("%w after %d steps: %w", ErrCanceled, e.stats.Steps, cerr)
			}
		}
		if t.into != nil {
			err = t.into.StepInto(&st)
		} else {
			st, err = t.prog.Step()
		}
		if err != nil {
			return nil, fmt.Errorf("sim: thread %d: %w", t.id, err)
		}
		t.phys += st.Cycles
		// ClockDelta applies on every step kind: sync steps publish the
		// thread's precise clock before the operation (Kendo reads its
		// counter exactly at synchronization points).
		t.clock += st.ClockDelta
		if !ref {
			if st.Kind == StepAdvance {
				// Status is unchanged (settlement below only touches
				// acquiring threads), so restoring the heap invariant for
				// t's larger key is the whole re-enqueue.
				e.heapDown(0)
				e.settleAcquirers(t.phys)
				continue
			}
			// Sync steps change t's status; take it out before the effect
			// handlers (and settlement) push other threads around it.
			e.heapPop()
		}
		switch st.Kind {
		case StepAdvance:
		case StepLock:
			t.status = tsAcquiring
			t.wantLock = st.Obj
			t.readyAt = t.phys
			t.waitFrom = t.phys
			if !ref {
				e.acq = append(e.acq, t)
			}
		case StepUnlock:
			e.unlock(t, st.Obj)
		case StepBarrier:
			e.barrierArrive(t, st.Obj)
		case StepDone:
			t.status = tsDone
			e.stats.PerThreadCycles[t.id] = t.phys
			e.stats.FinalClocks[t.id] = t.clock
			if t.phys > e.stats.Makespan {
				e.stats.Makespan = t.phys
			}
			e.settleJoiners(t)
		case StepSpawn:
			e.spawn(t, st)
		case StepJoin:
			e.join(t, st.Obj)
		}
		// Any step can change clocks or exclusion; settle pending acquires.
		e.settleAcquirers(t.phys)
		// The stepped thread re-enters the run queue unless the step (or
		// settlement) excluded it; wakeups elsewhere push directly.
		if !ref && t.status == tsRunnable {
			e.heapPush(t)
		}
	}
	return &e.stats, nil
}

// pickRunnable returns the runnable thread with minimal (phys, id), nil when
// none are runnable.
func (e *Engine) pickRunnable() *tstate {
	var best *tstate
	for _, t := range e.threads {
		if t.status != tsRunnable {
			continue
		}
		if best == nil || t.phys < best.phys || (t.phys == best.phys && t.id < best.id) {
			best = t
		}
	}
	return best
}

func (e *Engine) allDone() bool {
	for _, t := range e.threads {
		if t.status != tsDone {
			return false
		}
	}
	return true
}

// deadlockError assembles the same structured report internal/det produces:
// per-thread snapshots, wait-for edges, and the cycle when one exists.
func (e *Engine) deadlockError() *diag.DeadlockError {
	dd := &diag.DeadlockError{}
	for _, t := range e.threads {
		s := diag.ThreadSnapshot{ID: t.id, Clock: t.clock, Holder: -1}
		switch t.status {
		case tsDone:
			s.State = "done"
		case tsBlocked:
			s.State = "blocked"
			s.BlockedOn = fmt.Sprintf("mutex#%d", t.wantLock)
			if l := &e.locks[t.wantLock]; l.held {
				s.Holder = l.holder
			}
		case tsBarrier:
			s.State = "blocked"
			s.BlockedOn = fmt.Sprintf("barrier#%d", t.wantLock)
		case tsJoining:
			s.State = "blocked"
			s.BlockedOn = fmt.Sprintf("join(thread %d)", t.wantLock)
			s.Holder = t.wantLock
		case tsAcquiring:
			// An acquirer that never gains the turn is stuck waiting for the
			// lock it requested; report it as such.
			s.State = "blocked"
			s.BlockedOn = fmt.Sprintf("mutex#%d", t.wantLock)
			if l := &e.locks[t.wantLock]; l.held {
				s.Holder = l.holder
			}
		default:
			s.State = "runnable"
		}
		if s.State == "blocked" {
			dd.Waits = append(dd.Waits, diag.WaitEdge{
				Waiter: t.id, Resource: s.BlockedOn, Holder: s.Holder,
			})
		}
		dd.Threads = append(dd.Threads, s)
	}
	dd.Cycle = e.findCycle()
	return dd
}

// findCycle returns the first wait-for cycle: a lock waiter waits on the
// lock's live holder, a joiner on its live target.
func (e *Engine) findCycle() []diag.WaitEdge {
	next := func(i int) int {
		t := e.threads[i]
		switch t.status {
		case tsBlocked, tsAcquiring:
			if l := &e.locks[t.wantLock]; l.held && e.threads[l.holder].status != tsDone {
				return l.holder
			}
		case tsJoining:
			if e.threads[t.wantLock].status != tsDone {
				return t.wantLock
			}
		}
		return -1
	}
	edge := func(i int) diag.WaitEdge {
		t := e.threads[i]
		w := diag.WaitEdge{Waiter: t.id, Holder: -1}
		switch t.status {
		case tsBlocked, tsAcquiring:
			w.Resource = fmt.Sprintf("mutex#%d", t.wantLock)
			if l := &e.locks[t.wantLock]; l.held {
				w.Holder = l.holder
			}
		case tsJoining:
			w.Resource = fmt.Sprintf("join(thread %d)", t.wantLock)
			w.Holder = t.wantLock
		}
		return w
	}
	return diag.FindCycle(len(e.threads), next, edge)
}

// excludedFromTurn mirrors package det: blocked lock waiters, barrier
// arrivals and finished threads do not participate in the turn predicate.
func (t *tstate) excludedFromTurn() bool {
	switch t.status {
	case tsBlocked, tsBarrier, tsJoining, tsDone:
		return true
	}
	return false
}

// hasTurn reports whether a's (clock, id) is minimal among non-excluded
// threads (Kendo's wait_for_turn).
func (e *Engine) hasTurn(a *tstate) bool {
	for _, o := range e.threads {
		if o == a || o.excludedFromTurn() {
			continue
		}
		if o.clock < a.clock || (o.clock == a.clock && o.id < a.id) {
			return false
		}
	}
	return true
}

// settleAcquirers resolves pending lock requests. Under FCFS a request
// resolves immediately; under the deterministic policy a request resolves
// when its thread gains the turn — the grant's physical time is the later of
// the request time and the step that made the turn condition true (now).
//
// It runs after every engine step, so the fast path must be O(1) when no
// thread is mid-acquire: the maintained acq list makes the common case a
// single length check, and settlement passes sort a reused scratch snapshot
// instead of re-collecting and sort.Slice-ing every thread. Settlement
// decisions and their order are identical to the reference implementation:
// both iterate acquirers by (clock, id), which is a total order.
func (e *Engine) settleAcquirers(now int64) {
	if e.cfg.Reference {
		e.settleAcquirersRef(now)
		return
	}
	if len(e.acq) == 0 {
		return
	}
	for progress := true; progress; {
		progress = false
		// Snapshot the still-acquiring threads in (clock, id) order. Clocks
		// move during settlement (grants tick), so each pass re-sorts — as
		// the reference re-collects. Insertion sort: the set is tiny
		// (bounded by the thread count) and usually nearly sorted.
		s := e.acqScratch[:0]
		for _, t := range e.acq {
			if t.status != tsAcquiring {
				continue
			}
			i := len(s)
			s = append(s, t)
			for i > 0 && acqLess(t, s[i-1]) {
				s[i] = s[i-1]
				i--
			}
			s[i] = t
		}
		e.acqScratch = s
		for _, a := range s {
			if a.status != tsAcquiring {
				continue
			}
			l := &e.locks[a.wantLock]
			switch e.cfg.Policy {
			case PolicyFCFS:
				if !l.held {
					e.grant(a, max(a.phys, a.readyAt))
				} else {
					a.status = tsBlocked
					l.waiters = append(l.waiters, a.id)
				}
				progress = true
			case PolicyDet:
				if !e.hasTurn(a) {
					continue
				}
				if !l.held {
					// Kendo: tick after acquisition.
					a.clock++
					e.grant(a, max(a.phys, now))
				} else {
					a.status = tsBlocked
					l.waiters = append(l.waiters, a.id)
				}
				progress = true
			}
		}
	}
	// Compact: settlement only ever removes threads from the acquiring set.
	keep := e.acq[:0]
	for _, t := range e.acq {
		if t.status == tsAcquiring {
			keep = append(keep, t)
		}
	}
	for i := len(keep); i < len(e.acq); i++ {
		e.acq[i] = nil
	}
	e.acq = keep
}

// acqLess orders acquirers by (clock, id): the reference sort.Slice
// comparator.
func acqLess(a, b *tstate) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

// settleAcquirersRef is the pre-optimization settlement loop, kept verbatim
// as the equivalence oracle (Config.Reference).
func (e *Engine) settleAcquirersRef(now int64) {
	for progress := true; progress; {
		progress = false
		for _, a := range e.acquirersInOrder() {
			l := &e.locks[a.wantLock]
			switch e.cfg.Policy {
			case PolicyFCFS:
				if !l.held {
					e.grant(a, max(a.phys, a.readyAt))
				} else {
					a.status = tsBlocked
					l.waiters = append(l.waiters, a.id)
				}
				progress = true
			case PolicyDet:
				if !e.hasTurn(a) {
					continue
				}
				if !l.held {
					// Kendo: tick after acquisition.
					a.clock++
					e.grant(a, max(a.phys, now))
				} else {
					a.status = tsBlocked
					l.waiters = append(l.waiters, a.id)
				}
				progress = true
			}
		}
	}
}

// acquirersInOrder returns acquiring threads ordered by (clock, id) so
// settlement decisions are deterministic and respect the turn order.
func (e *Engine) acquirersInOrder() []*tstate {
	var out []*tstate
	for _, t := range e.threads {
		if t.status == tsAcquiring {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].clock != out[j].clock {
			return out[i].clock < out[j].clock
		}
		return out[i].id < out[j].id
	})
	return out
}

// grant completes a lock acquisition at physical time at.
func (e *Engine) grant(t *tstate, at int64) {
	l := &e.locks[t.wantLock]
	l.held = true
	l.holder = t.id
	waited := at - t.waitFrom
	if waited > 0 {
		e.stats.WaitCycles += waited
	}
	t.phys = at
	t.status = tsRunnable
	e.heapPush(t)
	e.stats.Acquisitions++
	if e.cfg.RecordTrace {
		e.stats.Trace = append(e.stats.Trace, Acquisition{
			Lock: t.wantLock, Thread: t.id, Clock: t.clock, Phys: t.phys,
		})
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Acquired(t.id, t.wantLock)
	}
}

// unlock releases a lock and hands it to the first queued waiter, if any.
func (e *Engine) unlock(t *tstate, obj int) {
	l := &e.locks[obj]
	if !l.held || l.holder != t.id {
		panic(fmt.Sprintf("sim: thread %d unlocks lock %d it does not hold", t.id, obj))
	}
	if e.cfg.Policy == PolicyDet {
		t.clock++
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Released(t.id, obj)
	}
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = -1
		return
	}
	wid := l.waiters[0]
	l.waiters = l.waiters[1:]
	w := e.threads[wid]
	if e.cfg.Policy == PolicyDet {
		// Kendo semantics: the waiter's clock was paused while blocked and
		// resumes where it froze, ticking once for the acquisition. Keeping
		// the frozen clock (rather than jumping to the releaser's) is what
		// makes high-lock-frequency programs pay the paper's deterministic
		// round-robin cost: other threads must wait for the slow clock to
		// catch up before their own acquisitions.
		w.clock++
	}
	l.holder = wid
	waited := t.phys - w.waitFrom
	if waited > 0 {
		e.stats.WaitCycles += waited
	}
	w.phys = max(w.phys, t.phys)
	w.status = tsRunnable
	e.heapPush(w)
	e.stats.Acquisitions++
	if e.cfg.RecordTrace {
		e.stats.Trace = append(e.stats.Trace, Acquisition{
			Lock: obj, Thread: wid, Clock: w.clock, Phys: w.phys,
		})
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Acquired(wid, obj)
	}
}

// barrierArrive handles a barrier arrival, releasing everyone on the last.
func (e *Engine) barrierArrive(t *tstate, obj int) {
	b := &e.barriers[obj]
	t.status = tsBarrier
	t.waitFrom = t.phys
	b.arrived = append(b.arrived, t.id)
	if len(b.arrived) < e.parties {
		return
	}
	var maxPhys, maxClock int64
	for _, id := range b.arrived {
		w := e.threads[id]
		if w.phys > maxPhys {
			maxPhys = w.phys
		}
		if w.clock > maxClock {
			maxClock = w.clock
		}
	}
	for _, id := range b.arrived {
		w := e.threads[id]
		if waited := maxPhys - w.phys; waited > 0 {
			e.stats.WaitCycles += waited
		}
		w.phys = maxPhys
		if e.cfg.Policy == PolicyDet {
			w.clock = maxClock + 1
		}
		w.status = tsRunnable
		e.heapPush(w)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.BarrierReleased(b.arrived)
	}
	b.arrived = b.arrived[:0]
	e.stats.BarrierEpisodes++
}

// spawn creates a new thread at the parent's physical time. The id is the
// next index — assigned at a deterministic engine point, so handles are
// reproducible. Under the deterministic policy the child starts at the
// parent's clock + 1 and the parent ticks, mirroring package det.
func (e *Engine) spawn(parent *tstate, st Step) {
	id := len(e.threads)
	child := &tstate{id: id, prog: st.NewProg(id), phys: parent.phys, hpos: -1}
	if !e.cfg.Reference {
		child.into, _ = child.prog.(StepperInto)
	}
	if e.cfg.Policy == PolicyDet {
		child.clock = parent.clock + 1
		parent.clock++
	}
	e.threads = append(e.threads, child)
	e.heapPush(child)
	e.stats.PerThreadCycles = append(e.stats.PerThreadCycles, 0)
	e.stats.FinalClocks = append(e.stats.FinalClocks, 0)
	if st.SpawnDst != nil {
		*st.SpawnDst = int64(id)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Spawned(parent.id, id)
	}
}

// join blocks t until thread target finishes; invalid targets panic (a
// program bug, like unlocking an unheld mutex).
func (e *Engine) join(t *tstate, target int) {
	if target < 0 || target >= len(e.threads) || target == t.id {
		panic(fmt.Sprintf("sim: thread %d joins invalid thread %d", t.id, target))
	}
	tgt := e.threads[target]
	if tgt.status == tsDone {
		t.phys = max(t.phys, tgt.phys)
		if e.cfg.Policy == PolicyDet {
			t.clock = max(t.clock, tgt.clock) + 1
		}
		if e.cfg.Observer != nil {
			e.cfg.Observer.Joined(t.id, target)
		}
		return
	}
	t.status = tsJoining
	t.wantLock = target
	t.waitFrom = t.phys
}

// settleJoiners resumes joiners whose target just finished.
func (e *Engine) settleJoiners(done *tstate) {
	for _, t := range e.threads {
		if t.status != tsJoining || t.wantLock != done.id {
			continue
		}
		if waited := done.phys - t.phys; waited > 0 {
			e.stats.WaitCycles += waited
		}
		t.phys = max(t.phys, done.phys)
		if e.cfg.Policy == PolicyDet {
			t.clock = max(t.clock, done.clock) + 1
		}
		t.status = tsRunnable
		e.heapPush(t)
		if e.cfg.Observer != nil {
			e.cfg.Observer.Joined(t.id, done.id)
		}
	}
}
