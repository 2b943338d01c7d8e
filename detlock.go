// Package detlock is the public API of the DetLock reproduction: portable
// deterministic execution for shared-memory multithreaded programs, after
// "DetLock: Portable and Efficient Deterministic Execution for Shared Memory
// Multicore Systems" (Mushtaq, Al-Ars, Bertels — SC 2012).
//
// Two ways to use it:
//
// # Deterministic runtime for Go code
//
// The runtime gives real goroutines Kendo-style weak determinism: for a
// race-free program with a fixed input, every run acquires every lock in
// the same global order, no matter how the Go scheduler interleaves the
// goroutines. Logical clocks stand in for the paper's compiler-inserted
// updates via explicit Tick calls:
//
//	rt := detlock.New(4)
//	mu := rt.NewMutex()
//	rt.Run(func(t *detlock.Thread) {
//	    t.Tick(workUnits)  // account for compute between sync points
//	    mu.Lock(t)
//	    // ... deterministic critical section order ...
//	    mu.Unlock(t)
//	})
//
// # Compiler pipeline and simulator for IR programs
//
// Programs written in (or compiled to) the textual IR can be instrumented
// with the paper's clock-insertion pass — including all four overhead
// optimizations — and executed on a deterministic multicore simulator that
// reports cycle-accurate overheads:
//
//	m, _ := detlock.ParseProgram(src)
//	res, _ := detlock.Simulate(m, detlock.SimConfig{
//	    Threads: 4,
//	    Opt:     detlock.AllOptimizations(),
//	})
//
// See cmd/detbench for the full reproduction of the paper's evaluation.
package detlock

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/det"
	"repro/internal/diag"
	"repro/internal/estimates"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runtime coordinates deterministic threads over real goroutines.
type Runtime = det.Runtime

// Thread is a deterministic thread handle; all synchronization methods take
// the owning thread.
type Thread = det.Thread

// Mutex is a deterministic mutual-exclusion lock.
type Mutex = det.Mutex

// Barrier is a deterministic cyclic barrier.
type Barrier = det.Barrier

// Cond is a deterministic condition variable (the paper's future work,
// implemented here as an extension).
type Cond = det.Cond

// Allocator is the deterministic allocator shim (the paper's malloc
// replacement, §III-B).
type Allocator = det.Allocator

// New creates a deterministic runtime with n threads.
func New(n int) *Runtime { return det.New(n) }

// Failure modes & diagnostics.
//
// The runtime never hangs: every stuck state terminates with a structured
// report. Runtime.Run returns nil on a clean run, or a typed error:
//
//   - *DeadlockError when every live thread is blocked — it names the exact
//     wait-for cycle and carries a per-thread snapshot (id, frozen clock,
//     blocked-on resource, last acquisition). Because blocking events are
//     turn-gated, the report is identical on every run.
//   - *WatchdogError when the optional progress watchdog (EnableWatchdog on
//     the runtime; off by default, zero overhead when disabled) sees no
//     clock advance within its bound — the livelocks a wait-for graph
//     cannot see.
//   - *ThreadPanicError when user code panics: the thread is torn out of
//     the turn predicate deterministically and survivors keep running (or
//     reach the deadlock detector, if the dead thread held locks they
//     need). API misuse (unlock of an unheld mutex, cross-runtime object
//     use, self-join) panics with a *MisuseError, classified by the Err*
//     sentinels.
//
// Classify with errors.Is (ErrDeadlock, ErrStalled, ...), extract with
// errors.As, and render with FormatFailure. Simulate returns the same
// *DeadlockError for stuck IR programs.

// DeadlockError reports that every live thread is blocked, with the wait-for
// cycle and a deterministic per-thread snapshot.
type DeadlockError = diag.DeadlockError

// WatchdogError reports a livelock detected by the progress watchdog.
type WatchdogError = diag.WatchdogError

// ThreadPanicError reports a user panic contained by the runtime.
type ThreadPanicError = diag.ThreadPanicError

// MisuseError reports an API contract violation with thread context.
type MisuseError = diag.MisuseError

// RaceError reports a data race found by the simulator's deterministic
// detector: the conflicting access pair with threads, vector clocks, held
// locksets and the flat address — identical on every run, including under
// physical-timing perturbation.
type RaceError = diag.RaceError

// RaceAccess is one side of a reported race.
type RaceAccess = diag.RaceAccess

// DivergenceError reports the first synchronization event at which a run's
// schedule differs from the reference — trace.CheckRuns' typed result and
// the runtime replay guard's (Runtime.SetReplayGuard) failure report.
type DivergenceError = diag.DivergenceError

// DivergenceEvent is one synchronization event in a divergence report.
type DivergenceEvent = diag.DivergenceEvent

// RaceConfig enables the simulator's deterministic race detector; its
// Policy is RaceFailFast or RaceReport.
type RaceConfig = interp.RaceConfig

// Race policies.
const (
	// RaceFailFast aborts the simulation at the first race; Simulate
	// returns the *RaceError.
	RaceFailFast = interp.RaceFailFast
	// RaceReport collects races (deterministically capped) and lets the run
	// finish; read them from SimResult.Races.
	RaceReport = interp.RaceReport
)

// ThreadSnapshot is one thread's state inside a failure report.
type ThreadSnapshot = diag.ThreadSnapshot

// WaitEdge is one wait-for edge (thread → resource → holder).
type WaitEdge = diag.WaitEdge

// WatchdogConfig tunes Runtime.EnableWatchdog.
type WatchdogConfig = det.WatchdogConfig

// Failure classification sentinels for errors.Is.
var (
	ErrDeadlock       = diag.ErrDeadlock
	ErrStalled        = diag.ErrStalled
	ErrCrossRuntime   = diag.ErrCrossRuntime
	ErrNotHeld        = diag.ErrNotHeld
	ErrSelfJoin       = diag.ErrSelfJoin
	ErrBadJoin        = diag.ErrBadJoin
	ErrRace           = diag.ErrRace
	ErrDivergence     = diag.ErrDivergence
	ErrDetectorMidRun = diag.ErrDetectorMidRun
	ErrRaceBackend    = diag.ErrRaceBackend
	ErrBadConfig      = diag.ErrBadConfig
)

// FormatFailure renders a runtime failure error (deadlock, stall, panic,
// misuse) as a full human-readable report; other errors render as Error().
func FormatFailure(err error) string { return trace.FormatFailure(err) }

// Module is a program in the reproduction's compiler IR.
type Module = ir.Module

// Options selects the clock-insertion optimizations (paper §IV).
type Options = core.Options

// InstrumentResult reports what the pass did (clockable functions etc.).
type InstrumentResult = core.Result

// Schedule is a recorded synchronization order; identical schedules across
// runs are the definition of weak determinism.
type Schedule = trace.Schedule

// NewSchedule returns an empty schedule, for Runtime.RecordSchedule and
// Runtime.SetReplayGuard.
func NewSchedule() *Schedule { return trace.New() }

// AllOptimizations returns the paper's "With All Optimizations" setting.
func AllOptimizations() Options { return core.OptAll }

// NoOptimizations returns the bare clock-insertion setting.
func NoOptimizations() Options { return core.OptNone }

// ParseProgram parses the textual IR format (see internal/ir and the files
// under examples/programs).
func ParseProgram(src string) (*Module, error) { return ir.Parse(src) }

// FormatProgram renders a module back to the textual format.
func FormatProgram(m *Module) string { return m.String() }

// Instrument runs the DetLock pass over m in place, inserting logical-clock
// updates. roots names the thread entry functions (never made clockable).
func Instrument(m *Module, opt Options, roots ...string) (*InstrumentResult, error) {
	if len(roots) == 0 {
		roots = []string{"main"}
	}
	opt.Roots = roots
	return core.Instrument(m, nil, nil, opt)
}

// SimConfig configures a deterministic simulation of an IR program.
type SimConfig struct {
	// Threads is the simulated core count. Zero defaults to 4; a negative
	// count is a typed *MisuseError (ErrBadConfig).
	Threads int
	// Entry is the SPMD entry function (default "main").
	Entry string
	// Opt selects the instrumentation; nil Opt with Deterministic=false
	// simulates the uninstrumented baseline.
	Opt *Options
	// Deterministic enables the deterministic lock policy (otherwise plain
	// FCFS locks, the baseline).
	Deterministic bool
	// RecordSchedule captures the lock-acquisition schedule.
	RecordSchedule bool
	// Race enables the deterministic data-race detector (vector clocks with
	// a lockset pre-filter over every simulated load and store). Requires
	// Deterministic — the detector guards the weak-determinism contract, and
	// its reports are only reproducible under the deterministic policy;
	// combining it with the FCFS baseline is a typed *MisuseError
	// (ErrRaceBackend). Nil disables detection at zero cost.
	Race *RaceConfig
	// PerturbSeed, when nonzero, perturbs physical instruction timing with
	// seeded pseudo-random extra cycles (the fault-injection harness for
	// timing). Deterministic schedules — and race reports — are invariant
	// under it; baseline FCFS schedules generally are not. Zero disables.
	PerturbSeed int64
}

// SimResult reports a simulation outcome.
type SimResult struct {
	// Cycles is the simulated makespan.
	Cycles int64
	// WaitCycles is the total time threads spent blocked on synchronization.
	WaitCycles int64
	// Acquisitions counts lock acquisitions.
	Acquisitions int64
	// ClockUpdates counts executed logical-clock updates.
	ClockUpdates int64
	// Clockable lists the functions Optimization 1 clocked.
	Clockable []string
	// Schedule is the synchronization order (when recorded).
	Schedule *Schedule
	// Output is each thread's deterministic print log.
	Output [][]int64
	// Races lists the data races found when SimConfig.Race ran with
	// RaceReport; deterministically ordered and capped at
	// RaceConfig.MaxReports.
	Races []*RaceError
	// RacesSuppressed counts races dropped beyond the report cap.
	RacesSuppressed int
}

// Simulate instruments (optionally) and runs m on the deterministic
// multicore simulator. The input module is not modified. Configuration
// misuse (nil module, negative thread count, Race without Deterministic) is
// a typed *MisuseError, never a panic.
func Simulate(m *Module, cfg SimConfig) (*SimResult, error) {
	if m == nil {
		return nil, misuse("detlock.Simulate", diag.ErrBadConfig, "nil module")
	}
	if cfg.Threads < 0 {
		return nil, misuse("detlock.Simulate", diag.ErrBadConfig, fmt.Sprintf("negative thread count %d", cfg.Threads))
	}
	if cfg.Threads == 0 {
		cfg.Threads = 4
	}
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	if cfg.Race != nil && !cfg.Deterministic {
		return nil, misuse("detlock.Simulate", diag.ErrRaceBackend,
			"SimConfig.Race requires SimConfig.Deterministic: race reports are only reproducible under the deterministic policy")
	}
	clone := m.Clone()
	out := &SimResult{}
	if cfg.Opt != nil {
		opt := *cfg.Opt
		opt.Roots = []string{cfg.Entry}
		res, err := core.Instrument(clone, nil, nil, opt)
		if err != nil {
			return nil, fmt.Errorf("detlock: %w", err)
		}
		out.Clockable = res.ClockableNames()
	}
	policy := sim.PolicyFCFS
	if cfg.Deterministic {
		policy = sim.PolicyDet
	}
	mach, threads, stats, err := interp.Run(interp.Config{
		Module:     clone,
		Threads:    cfg.Threads,
		Entry:      cfg.Entry,
		Estimates:  estimates.DefaultTable(),
		Race:       cfg.Race,
		JitterSeed: cfg.PerturbSeed,
	}, sim.Config{Policy: policy, RecordTrace: cfg.RecordSchedule})
	if err != nil {
		return nil, fmt.Errorf("detlock: %w", err)
	}
	out.Cycles = stats.Makespan
	out.WaitCycles = stats.WaitCycles
	out.Acquisitions = stats.Acquisitions
	out.ClockUpdates = mach.ClockUpdates
	if cfg.RecordSchedule {
		out.Schedule = trace.FromSim(stats.Trace)
	}
	out.Races = mach.Races()
	out.RacesSuppressed = mach.RacesSuppressed()
	for _, th := range threads {
		out.Output = append(out.Output, append([]int64(nil), th.Output...))
	}
	return out, nil
}

// misuse is a configuration-level *MisuseError: it names no thread.
func misuse(op string, kind error, detail string) error {
	return &diag.MisuseError{Op: op, ThreadID: -1, Kind: kind, Detail: detail}
}

// CheckDeterminism runs the program n times under the deterministic policy
// and verifies the synchronization schedules are identical, returning the
// common schedule. n must be at least 1 (ErrBadConfig otherwise).
func CheckDeterminism(m *Module, cfg SimConfig, n int) (*Schedule, error) {
	if n < 1 {
		return nil, misuse("detlock.CheckDeterminism", diag.ErrBadConfig, fmt.Sprintf("run count %d < 1", n))
	}
	cfg.Deterministic = true
	cfg.RecordSchedule = true
	var runs []*Schedule
	for i := 0; i < n; i++ {
		res, err := Simulate(m, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res.Schedule)
	}
	if err := trace.CheckRuns(runs); err != nil {
		return nil, err
	}
	return runs[0], nil
}
