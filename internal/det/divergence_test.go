package det

import (
	"errors"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/trace"
)

// runLadder runs a three-thread lock ladder whose acquisition order is a pure
// function of logical clocks. seed >= 0 adds jitter's scheduling
// perturbations; record/guard install the divergence machinery;
// perturb shifts thread 1's clocks mid-run (the stand-in for a data race
// changing the program's synchronization behavior); rounds controls how many
// acquisitions each thread performs.
func runLadder(t *testing.T, seed int64, record, guard *trace.Schedule, perturb bool, rounds int) error {
	t.Helper()
	rt := New(3)
	var jit jitter
	if seed >= 0 {
		jit = jitter{seed: seed, storm: 8, sleep: 30 * time.Microsecond}
	}
	if record != nil {
		if err := rt.RecordSchedule(record); err != nil {
			t.Fatalf("RecordSchedule: %v", err)
		}
	}
	if guard != nil {
		if err := rt.SetReplayGuard(guard); err != nil {
			t.Fatalf("SetReplayGuard: %v", err)
		}
	}
	mu := rt.NewMutex()
	return rt.Run(func(th *Thread) {
		j := jit.on(th)
		for i := 0; i < rounds; i++ {
			tick := int64(th.ID() + 1)
			if perturb && th.ID() == 1 && i == 2 {
				tick += 7
			}
			th.Tick(tick)
			j.lock(mu)
			th.Tick(1)
			j.unlock(mu)
		}
	})
}

// reference records the ladder's schedule once, unperturbed.
func reference(t *testing.T, rounds int) *trace.Schedule {
	t.Helper()
	s := trace.New()
	if err := runLadder(t, -1, s, nil, false, rounds); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if s.Len() != 3*rounds {
		t.Fatalf("reference recorded %d events, want %d", s.Len(), 3*rounds)
	}
	return s
}

// TestReplayGuardCleanAcrossSeeds: a faithful re-run matches the recorded
// reference under >= 20 perturbed seeds — the guard never false-positives on
// a race-free program, because the schedule is a function of clocks alone.
func TestReplayGuardCleanAcrossSeeds(t *testing.T) {
	ref := reference(t, 5)
	for seed := int64(0); seed < 21; seed++ {
		if err := runLadder(t, seed, nil, ref, false, 5); err != nil {
			t.Fatalf("seed %d: clean replay failed: %v", seed, err)
		}
	}
}

// TestDivergenceDeterministicAcrossSeeds is the acceptance property: a
// clock-shifted re-run diverges from the reference with an identical typed
// report — same event index, same expected and observed events — across
// >= 20 perturbed seeds.
func TestDivergenceDeterministicAcrossSeeds(t *testing.T) {
	ref := reference(t, 5)
	var first *diag.DivergenceError
	for seed := int64(0); seed < 21; seed++ {
		err := runLadder(t, seed, nil, ref, true, 5)
		if !errors.Is(err, diag.ErrDivergence) {
			t.Fatalf("seed %d: err = %v, want divergence", seed, err)
		}
		var de *diag.DivergenceError
		if !errors.As(err, &de) {
			t.Fatalf("seed %d: no *diag.DivergenceError in %v", seed, err)
		}
		if de.Want == nil || de.Got == nil {
			t.Fatalf("seed %d: mismatch report missing events: %+v", seed, de)
		}
		if first == nil {
			first = de
			continue
		}
		if de.Index != first.Index || *de.Want != *first.Want || *de.Got != *first.Got {
			t.Fatalf("seed %d: report differs:\n%v\nvs reference\n%v", seed, de, first)
		}
	}
}

// runSolo is a contention-free single-thread lock loop whose schedule prefix
// is identical regardless of rounds — the clean way to build length-mismatch
// divergences (the contended ladder's prefix shifts when a thread exits
// early, because exits change the grant interleaving).
func runSolo(t *testing.T, record, guard *trace.Schedule, rounds int) error {
	t.Helper()
	rt := New(1)
	if record != nil {
		if err := rt.RecordSchedule(record); err != nil {
			t.Fatalf("RecordSchedule: %v", err)
		}
	}
	if guard != nil {
		if err := rt.SetReplayGuard(guard); err != nil {
			t.Fatalf("SetReplayGuard: %v", err)
		}
	}
	mu := rt.NewMutex()
	return rt.Run(func(th *Thread) {
		for i := 0; i < rounds; i++ {
			th.Tick(1)
			mu.Lock(th)
			th.Tick(1)
			mu.Unlock(th)
		}
	})
}

// TestDivergenceUnderrun: a run that finishes with reference acquisitions
// outstanding fails with the length-mismatch form of the report.
func TestDivergenceUnderrun(t *testing.T) {
	ref := trace.New()
	if err := runSolo(t, ref, nil, 5); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	err := runSolo(t, nil, ref, 3)
	if !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("err = %v, want divergence", err)
	}
	var de *diag.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("no *diag.DivergenceError in %v", err)
	}
	if de.Got != nil {
		t.Fatalf("underrun report has an observed event: %+v", de.Got)
	}
	if de.GotLen != 3 || de.WantLen != 5 {
		t.Fatalf("lengths = %d/%d, want 3/5", de.GotLen, de.WantLen)
	}
}

// TestDivergenceOverrun: a run that acquires more than the reference recorded
// fails at the first extra acquisition.
func TestDivergenceOverrun(t *testing.T) {
	ref := trace.New()
	if err := runSolo(t, ref, nil, 3); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	err := runSolo(t, nil, ref, 5)
	if !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("err = %v, want divergence", err)
	}
	var de *diag.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("no *diag.DivergenceError in %v", err)
	}
	if de.Index != 3 || de.Want != nil || de.Got == nil {
		t.Fatalf("overrun report = %+v, want observed-only event at index 3", de)
	}
}

// TestDetectorToggleMidRunTyped: enabling or disabling the recorder or the
// guard while threads are running is a typed configuration misuse, in the
// style of misuse_test.go.
func TestDetectorToggleMidRunTyped(t *testing.T) {
	cases := []struct {
		name   string
		toggle func(rt *Runtime) error
	}{
		{"record-mid-run", func(rt *Runtime) error { return rt.RecordSchedule(trace.New()) }},
		{"record-off-mid-run", func(rt *Runtime) error { return rt.RecordSchedule(nil) }},
		{"guard-mid-run", func(rt *Runtime) error { return rt.SetReplayGuard(trace.New()) }},
		{"guard-off-mid-run", func(rt *Runtime) error { return rt.SetReplayGuard(nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(1)
			var cfgErr error
			if err := rt.Run(func(th *Thread) {
				th.Tick(1)
				cfgErr = tc.toggle(rt)
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !errors.Is(cfgErr, diag.ErrDetectorMidRun) {
				t.Fatalf("toggle err = %v, want ErrDetectorMidRun", cfgErr)
			}
			var me *diag.MisuseError
			if !errors.As(cfgErr, &me) {
				t.Fatalf("no *diag.MisuseError in %v", cfgErr)
			}
			if me.ThreadID != -1 {
				t.Fatalf("ThreadID = %d, want -1 (configuration-level)", me.ThreadID)
			}
		})
	}
}

// TestDetectorToggleIdleOK: the same toggles succeed while the runtime is
// idle, and an armed guard that matches to completion reports a full replay.
func TestDetectorToggleIdleOK(t *testing.T) {
	s := trace.New()
	run := func(record, guard *trace.Schedule) *Runtime {
		rt := New(2)
		if record != nil {
			if err := rt.RecordSchedule(record); err != nil {
				t.Fatalf("RecordSchedule idle: %v", err)
			}
		}
		if guard != nil {
			if err := rt.SetReplayGuard(guard); err != nil {
				t.Fatalf("SetReplayGuard idle: %v", err)
			}
		}
		mu := rt.NewMutex()
		if err := rt.Run(func(th *Thread) {
			th.Tick(int64(th.ID()) + 1)
			mu.Lock(th)
			th.Tick(1)
			mu.Unlock(th)
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return rt
	}
	rec := run(s, nil)
	if err := rec.RecordSchedule(nil); err != nil {
		t.Fatalf("RecordSchedule(nil) idle: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", s.Len())
	}
	rep := run(nil, s)
	matched, expected := rep.ReplayPosition()
	if matched != expected || matched != s.Len() {
		t.Fatalf("replay position %d/%d, want full match of %d", matched, expected, s.Len())
	}
}
