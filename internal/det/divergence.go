package det

import (
	"repro/internal/diag"
	"repro/internal/trace"
)

// Schedule divergence detection: the goroutine runtime's race guard.
//
// The runtime cannot instrument memory accesses the way the simulator does
// (user code is plain Go), so a data race has exactly one observable
// symptom here: a run whose lock-acquisition order differs from a reference
// run of the same program. RecordSchedule captures the reference; a later
// run armed with SetReplayGuard compares every acquisition — lock id,
// thread id, post-acquisition clock — against it and terminates with a
// typed *diag.DivergenceError at the first mismatch, delivered through the
// same fault channel as deadlock reports (so "det never hangs, every
// failure is typed" extends to contract violations the scheduler can't
// prevent). Because acquisitions are turn-gated, the first mismatch — and
// therefore the report — is deterministic.

// RecordSchedule installs s to receive every lock acquisition (lock id,
// thread id, post-acquisition clock) in global order. Pass nil to stop
// recording. Must be called while the runtime is idle: enabling or
// disabling a detector mid-run returns a typed *diag.MisuseError
// (diag.ErrDetectorMidRun) — acquisitions already taken would be missing
// from the schedule, making it silently unusable as a replay reference.
func (rt *Runtime) RecordSchedule(s *trace.Schedule) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.running {
		return configMisuse("Runtime.RecordSchedule", "schedule recording toggled while threads are running")
	}
	rt.recordTo = s
	return nil
}

// SetReplayGuard arms the divergence guard: every subsequent acquisition is
// checked against expected, and the first mismatch terminates the run with
// a *diag.DivergenceError (classify with errors.Is(err, diag.ErrDivergence)).
// A run that finishes with acquisitions still outstanding in expected fails
// the same way. Pass nil to disarm. Like RecordSchedule, arming mid-run is
// a typed misuse error.
func (rt *Runtime) SetReplayGuard(expected *trace.Schedule) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.running {
		return configMisuse("Runtime.SetReplayGuard", "replay guard toggled while threads are running")
	}
	if expected == nil {
		rt.replay = nil
		rt.replayIdx = 0
		rt.replayArmed = false
		return nil
	}
	rt.replay = expected.Events()
	rt.replayIdx = 0
	rt.replayArmed = true
	return nil
}

// configMisuse builds the configuration-level (no offending thread) misuse
// error for detector toggles.
func configMisuse(op, detail string) *diag.MisuseError {
	return &diag.MisuseError{
		Op:       op,
		ThreadID: -1,
		Kind:     diag.ErrDetectorMidRun,
		Detail:   detail,
	}
}

// onAcquisitionLocked observes one lock acquisition from Mutex.take — the
// single point every grant passes through (Lock, TryLock, Unlock handoff,
// Cond re-acquire). Caller holds rt.mu.
func (rt *Runtime) onAcquisitionLocked(lock, thread int, clock int64) {
	if rt.recordTo != nil {
		rt.recordTo.Record(lock, thread, clock)
	}
	if !rt.replayArmed || rt.fault != nil {
		return
	}
	i := rt.replayIdx
	got := &diag.DivergenceEvent{Seq: int64(i), Lock: lock, Thread: thread, Clock: clock}
	if i >= len(rt.replay) {
		// The live run acquired more locks than the reference recorded.
		rt.deliverFaultLocked(&diag.DivergenceError{
			Run: 1, Index: i, Got: got,
			WantLen: len(rt.replay), GotLen: i + 1,
		})
		return
	}
	want := rt.replay[i]
	if want.Lock != lock || want.Thread != thread || want.Clock != clock {
		rt.deliverFaultLocked(&diag.DivergenceError{
			Run: 1, Index: i,
			Want:    &diag.DivergenceEvent{Seq: want.Seq, Lock: want.Lock, Thread: want.Thread, Clock: want.Clock},
			Got:     got,
			WantLen: len(rt.replay), GotLen: i + 1,
		})
		return
	}
	rt.replayIdx++
}

// checkReplayCompleteLocked fires the underrun divergence after a run that
// ended with reference acquisitions outstanding — unless the run already
// failed (a fault or contained panic legitimately truncates the schedule).
// Caller holds rt.mu.
func (rt *Runtime) checkReplayCompleteLocked() {
	if !rt.replayArmed || rt.fault != nil || len(rt.panics) > 0 {
		return
	}
	if rt.replayIdx >= len(rt.replay) {
		return
	}
	want := rt.replay[rt.replayIdx]
	rt.deliverFaultLocked(&diag.DivergenceError{
		Run:   1,
		Index: rt.replayIdx,
		Want:  &diag.DivergenceEvent{Seq: want.Seq, Lock: want.Lock, Thread: want.Thread, Clock: want.Clock},
		// Got stays nil: the run produced only replayIdx events.
		WantLen: len(rt.replay), GotLen: rt.replayIdx,
	})
}

// ReplayPosition reports how many acquisitions the armed guard has matched,
// for diagnostics and tests.
func (rt *Runtime) ReplayPosition() (matched, expected int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.replayIdx, len(rt.replay)
}
