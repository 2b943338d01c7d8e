// Package diag defines the structured failure reports shared by the
// deterministic runtime (internal/det) and the simulator (internal/sim).
//
// Deterministic execution's chief payoff is reproducible debugging (Aviram &
// Ford's Determinator line of work makes this argument explicitly): a hang or
// crash in a deterministically-scheduled program is the *same* hang on every
// run, so the runtime can afford to turn every stuck state into a rich,
// deterministic diagnostic instead of spinning forever. The types here are
// that diagnostic: a per-thread snapshot, the wait-for edges between threads
// and synchronization objects, and typed errors for the three failure
// families — deadlock (a cycle or globally blocked state), stall (no clock
// progress within a watchdog bound), and contained user panics — plus typed
// misuse errors for API contract violations.
//
// The invariant the runtime maintains with these types: det never hangs —
// every stuck state terminates with a structured report.
package diag

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Sentinel classification errors. Concrete reports wrap one of these, so
// callers can classify with errors.Is while errors.As extracts the detail.
var (
	// ErrDeadlock: every live thread is blocked on a synchronization object;
	// no thread can ever make progress.
	ErrDeadlock = errors.New("deadlock: no thread can make progress")
	// ErrStalled: the progress watchdog observed no logical-clock advance and
	// no synchronization event within its bound.
	ErrStalled = errors.New("stalled: no progress within watchdog bound")
	// ErrCrossRuntime: a synchronization object was used with a thread that
	// belongs to a different runtime.
	ErrCrossRuntime = errors.New("object and thread belong to different runtimes")
	// ErrNotHeld: unlock (or condition-variable operation) on a mutex the
	// thread does not hold.
	ErrNotHeld = errors.New("mutex not held by this thread")
	// ErrSelfJoin: a thread attempted to join itself.
	ErrSelfJoin = errors.New("thread cannot join itself")
	// ErrBadJoin: join target is nil or not a thread of this runtime.
	ErrBadJoin = errors.New("join target is not a thread of this runtime")
	// ErrNegativeTick: Tick called with a negative amount.
	ErrNegativeTick = errors.New("negative Tick amount")
	// ErrInjected tags failures a test's fault injection produced
	// (internal/nemesis, or a test's own hook).
	ErrInjected = errors.New("injected fault")
	// ErrRace: two threads touched the same address without ordering
	// synchronization — the one program state that silently voids weak
	// determinism. Concrete reports are *RaceError.
	ErrRace = errors.New("data race: conflicting unsynchronized accesses")
	// ErrDivergence: a run's synchronization order differs from the
	// reference schedule — the observable symptom of an undetected race (or
	// nondeterministic input). Concrete reports are *DivergenceError.
	ErrDivergence = errors.New("schedule divergence: synchronization order differs from the reference run")
	// ErrDetectorMidRun: a detector (race detector, replay guard, schedule
	// recorder) was enabled or disabled while the runtime was running.
	ErrDetectorMidRun = errors.New("detector configuration changed mid-run")
	// ErrRaceBackend: race detection requested on a backend that cannot
	// provide it (only the deterministic simulator instruments accesses).
	ErrRaceBackend = errors.New("race detection requires the deterministic simulator backend")
	// ErrBadConfig: a configuration value is invalid (negative thread count,
	// nil module, unknown preset, non-positive run count, …). Used by the
	// facade and the service layer's job validation.
	ErrBadConfig = errors.New("invalid configuration")
	// ErrDeadline: a job exceeded its deadline (or its client abandoned it)
	// and was cooperatively canceled. Unlike ErrStalled the program was
	// making progress — it was just not worth waiting for. Concrete reports
	// are *TimeoutError.
	ErrDeadline = errors.New("deadline exceeded: job canceled before completion")
	// ErrRetriesExhausted: a transiently-failing job (contained panic,
	// injected fault) kept failing across its whole retry budget. Concrete
	// reports are *RetryError; the last attempt's error is preserved there.
	ErrRetriesExhausted = errors.New("retries exhausted: transient failure persisted across every attempt")
	// ErrCorruption: bytes failed an integrity check — a journal record
	// whose CRC32C frame does not verify, a peer response whose body
	// checksum mismatches, a shipped batch whose sum disagrees with its
	// payload. Corrupt data is never served or replayed; it is quarantined
	// (journal sidecar, peer quarantine) and the system recovers around it.
	// Concrete reports are *CorruptionError.
	ErrCorruption = errors.New("data corruption: integrity check failed")
)

// ThreadSnapshot is one thread's state at the moment a failure report was
// assembled. All fields are deterministic functions of the program's logic
// (clocks are frozen logical clocks, never wall time).
type ThreadSnapshot struct {
	ID    int
	Clock int64
	// State is "runnable", "blocked", "done" or "panicked".
	State string
	// BlockedOn names the synchronization object a blocked thread waits on,
	// e.g. "mutex#1", "barrier#0 (arrived 2 of 3)", "join(thread 2)".
	BlockedOn string
	// Holder is the thread holding BlockedOn (mutex holder, join target),
	// or -1 when there is no single owner (barriers, condition variables).
	Holder int
	// LastAcq describes the thread's most recent lock acquisition as
	// "mutex#N@clock", or "" if it never acquired a lock.
	LastAcq string
}

func (s ThreadSnapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "thread %d clock=%d %s", s.ID, s.Clock, s.State)
	if s.BlockedOn != "" {
		fmt.Fprintf(&sb, " on %s", s.BlockedOn)
		if s.Holder >= 0 {
			fmt.Fprintf(&sb, " (held by thread %d)", s.Holder)
		}
	}
	if s.LastAcq != "" {
		fmt.Fprintf(&sb, " last-acq %s", s.LastAcq)
	}
	return sb.String()
}

// WaitEdge is one edge of the wait-for graph: Waiter is blocked on Resource,
// which is owned by Holder (-1 when the resource has no single owner).
type WaitEdge struct {
	Waiter   int
	Resource string
	Holder   int
}

// FormatCycle renders a wait-for cycle as
// "thread 0 -[mutex#1]-> thread 1 -[mutex#0]-> thread 0".
func FormatCycle(cycle []WaitEdge) string {
	if len(cycle) == 0 {
		return "(no single-owner cycle: collective wait)"
	}
	var sb strings.Builder
	for _, e := range cycle {
		fmt.Fprintf(&sb, "thread %d -[%s]-> ", e.Waiter, e.Resource)
	}
	fmt.Fprintf(&sb, "thread %d", cycle[0].Waiter)
	return sb.String()
}

// FindCycle returns the first cycle of the wait-for graph over threads
// 0..n-1, where next(i) is the thread i waits on (-1 when none) and edge(i)
// describes that wait. Out-degree is at most one (a thread blocks on one
// resource), so a colored walk from each thread in id order suffices, and
// the cycle found is deterministic.
func FindCycle(n int, next func(i int) int, edge func(i int) WaitEdge) []WaitEdge {
	const (
		unvisited = iota
		onPath
		finished
	)
	state := make([]uint8, n)
	var path []int
	for start := range state {
		if state[start] != unvisited {
			continue
		}
		path = path[:0]
		t := start
		for t >= 0 && state[t] == unvisited {
			state[t] = onPath
			path = append(path, t)
			t = next(t)
		}
		if t >= 0 && state[t] == onPath {
			i := slices.Index(path, t)
			out := make([]WaitEdge, 0, len(path)-i)
			for _, w := range path[i:] {
				out = append(out, edge(w))
			}
			return out
		}
		for _, p := range path {
			state[p] = finished
		}
	}
	return nil
}

// DeadlockError reports a state in which every live thread is blocked.
// Cycle is the wait-for cycle when one exists (mutex/join ownership chains);
// Waits lists every blocked thread's edge; Threads is the full snapshot.
// The report is deterministic: the same program reaches the same blocked
// state — same cycle, same clocks — on every run.
type DeadlockError struct {
	Cycle   []WaitEdge
	Waits   []WaitEdge
	Threads []ThreadSnapshot
}

func (e *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v; cycle: %s", ErrDeadlock, FormatCycle(e.Cycle))
	blocked := 0
	for _, t := range e.Threads {
		if t.State == "blocked" {
			blocked++
		}
	}
	fmt.Fprintf(&sb, "; %d thread(s) blocked", blocked)
	return sb.String()
}

// Unwrap classifies the error as ErrDeadlock.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// WatchdogError reports a livelock: no logical clock advanced and no thread
// started or finished for at least NoProgressFor. Unlike DeadlockError the
// *moment* of detection depends on wall time, but the snapshot content is
// derived from deterministic state only.
type WatchdogError struct {
	NoProgressFor time.Duration
	Threads       []ThreadSnapshot
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("%v (%v without clock advance, %d thread(s) live)",
		ErrStalled, e.NoProgressFor, len(e.Threads))
}

// Unwrap classifies the error as ErrStalled.
func (e *WatchdogError) Unwrap() error { return ErrStalled }

// ThreadPanicError reports a user panic contained by the runtime: the
// panicking thread was deterministically removed from the turn predicate and
// the panic value preserved here.
type ThreadPanicError struct {
	ThreadID int
	Clock    int64
	Value    any
	Stack    string
}

func (e *ThreadPanicError) Error() string {
	return fmt.Sprintf("thread %d panicked at clock %d: %v", e.ThreadID, e.Clock, e.Value)
}

// Unwrap exposes the panic value when it is itself an error (typed misuse
// and injected faults panic with error values), so errors.Is/As see through
// the containment.
func (e *ThreadPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// MisuseError reports an API contract violation (unlock of an unheld mutex,
// cross-runtime object use, self-join, ...) with the offending thread's
// context. Kind is one of the sentinel errors above.
type MisuseError struct {
	Op       string // e.g. "Mutex.Unlock"
	ThreadID int
	Clock    int64
	Kind     error
	Detail   string
}

func (e *MisuseError) Error() string {
	ctx := fmt.Sprintf("thread %d, clock %d", e.ThreadID, e.Clock)
	if e.ThreadID < 0 {
		// Configuration-level misuse happens outside any thread.
		ctx = "configuration"
	}
	s := fmt.Sprintf("%s: %v (%s)", e.Op, e.Kind, ctx)
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Unwrap classifies the error by its Kind sentinel.
func (e *MisuseError) Unwrap() error { return e.Kind }

// RaceAccess is one side of a data race: which thread touched the address,
// whether it wrote, its vector clock at the access, the locks it held, and
// the IR site. All fields are deterministic functions of the program.
type RaceAccess struct {
	Thread int
	Write  bool
	// Clock is the accessor's own vector-clock component at the access (its
	// per-thread epoch).
	Clock int64
	// VC is the accessor's full vector clock at the access.
	VC []int64
	// Lockset lists the lock ids held at the access, ascending.
	Lockset []int
	// Site identifies the access instruction, "func.block+pc".
	Site string
}

func (a RaceAccess) String() string {
	kind := "read"
	if a.Write {
		kind = "write"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s by thread %d at clock %d", kind, a.Thread, a.Clock)
	if a.Site != "" {
		fmt.Fprintf(&sb, " (%s)", a.Site)
	}
	if len(a.Lockset) == 0 {
		sb.WriteString(" holding no locks")
	} else {
		sb.WriteString(" holding")
		for _, l := range a.Lockset {
			fmt.Fprintf(&sb, " mutex#%d", l)
		}
	}
	return sb.String()
}

// RaceError reports a data race: two accesses to the same address, at least
// one a write, with no happens-before ordering and no common lock. First and
// Second are ordered by thread id (racing accesses are always on distinct
// threads), making the report canonical — the same race renders identically
// regardless of which interleaving the detector observed it under.
type RaceError struct {
	// Sym and Index name the accessed global slot; Addr is its flat address.
	Sym   string
	Index int64
	Addr  int64

	First, Second RaceAccess
}

func (e *RaceError) Error() string {
	return fmt.Sprintf("%v on %s[%d] (addr %d): %s vs %s",
		ErrRace, e.Sym, e.Index, e.Addr, e.First, e.Second)
}

// Unwrap classifies the error as ErrRace.
func (e *RaceError) Unwrap() error { return ErrRace }

// DivergenceEvent is one synchronization event inside a divergence report
// (mirrors trace.Event without importing it — diag is the dependency root).
type DivergenceEvent struct {
	Seq    int64
	Lock   int
	Thread int
	Clock  int64
}

func (e DivergenceEvent) String() string {
	return fmt.Sprintf("lock %d by thread %d at clock %d", e.Lock, e.Thread, e.Clock)
}

// DivergenceError reports the first point where a run's synchronization
// schedule differs from the reference (run 0, or a recorded schedule being
// replayed). Want/Got are nil when one schedule is a strict prefix of the
// other (length mismatch).
type DivergenceError struct {
	// Run is the index of the diverging run; the reference is run 0.
	Run int
	// Index is the first mismatched event position.
	Index int
	// Want is the reference event, Got the observed one.
	Want, Got *DivergenceEvent
	// WantLen/GotLen are the schedule lengths (length-mismatch context).
	WantLen, GotLen int
}

func (e *DivergenceError) Error() string {
	if e.Want == nil || e.Got == nil {
		return fmt.Sprintf("%v: run %d diverges from run 0 at event %d: length mismatch (%d vs %d events)",
			ErrDivergence, e.Run, e.Index, e.WantLen, e.GotLen)
	}
	return fmt.Sprintf("%v: run %d diverges from run 0 at event %d: want %s, got %s",
		ErrDivergence, e.Run, e.Index, e.Want, e.Got)
}

// Unwrap classifies the error as ErrDivergence.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// TimeoutError reports a job that was cooperatively canceled: its deadline
// passed, or its submitter went away. Deadlines are wall-clock policy, not
// program logic, so — like WatchdogError — the moment of cancellation is
// nondeterministic, but a canceled run publishes no result, so determinism
// of surviving runs is unaffected.
type TimeoutError struct {
	// Op names the canceled operation (e.g. "service.job").
	Op string
	// Deadline is the budget that was exceeded (0 when the cancellation came
	// from the client rather than a deadline).
	Deadline time.Duration
	// Cause is the underlying context error (context.DeadlineExceeded or
	// context.Canceled).
	Cause error
}

func (e *TimeoutError) Error() string {
	if e.Deadline > 0 {
		return fmt.Sprintf("%s: %v (deadline %v)", e.Op, ErrDeadline, e.Deadline)
	}
	return fmt.Sprintf("%s: %v (canceled by client)", e.Op, ErrDeadline)
}

// Unwrap classifies the error as ErrDeadline and exposes the context cause,
// so both errors.Is(err, ErrDeadline) and errors.Is(err,
// context.DeadlineExceeded) hold.
func (e *TimeoutError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrDeadline, e.Cause}
	}
	return []error{ErrDeadline}
}

// RetryError reports a job that failed on every attempt of its retry budget.
// Only transient failures (contained worker panics) are retried;
// deterministic failures (deadlock, race, misuse) fail on the first attempt
// without one of these.
type RetryError struct {
	// Op names the retried operation (e.g. "service.job").
	Op string
	// Attempts is the total number of executions (first try + retries).
	Attempts int
	// Last is the final attempt's error.
	Last error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("%s: %v (%d attempts): %v", e.Op, ErrRetriesExhausted, e.Attempts, e.Last)
}

// Unwrap classifies the error as ErrRetriesExhausted and exposes the last
// attempt's failure for errors.Is/As.
func (e *RetryError) Unwrap() []error {
	if e.Last != nil {
		return []error{ErrRetriesExhausted, e.Last}
	}
	return []error{ErrRetriesExhausted}
}

// CorruptionError reports an integrity-check failure: some bytes — a journal
// record, a peer response body, a shipped batch — do not match their
// checksum or framing. Corruption is an environmental fault, not a program
// fault: the deterministic contract of the data's producer is intact, the
// copy is damaged, so the correct response is always to discard the copy and
// recover (re-execute, resync, refetch), never to serve it.
type CorruptionError struct {
	// Source names where the damaged bytes came from ("journal", "peer
	// node-b", "ship batch").
	Source string
	// Detail describes the failed check (expected vs observed checksum,
	// malformed frame, impossible length).
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("%s: %v: %s", e.Source, ErrCorruption, e.Detail)
}

// Unwrap classifies the error as ErrCorruption.
func (e *CorruptionError) Unwrap() error { return ErrCorruption }
