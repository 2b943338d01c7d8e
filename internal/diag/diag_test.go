package diag

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestDeadlockErrorClassification(t *testing.T) {
	dd := &DeadlockError{
		Cycle: []WaitEdge{
			{Waiter: 0, Resource: "mutex#1", Holder: 1},
			{Waiter: 1, Resource: "mutex#0", Holder: 0},
		},
		Threads: []ThreadSnapshot{
			{ID: 0, Clock: 21, State: "blocked", BlockedOn: "mutex#1", Holder: 1},
			{ID: 1, Clock: 21, State: "blocked", BlockedOn: "mutex#0", Holder: 0},
		},
	}
	var err error = fmt.Errorf("run: %w", dd)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("errors.Is(ErrDeadlock) = false for %v", err)
	}
	var got *DeadlockError
	if !errors.As(err, &got) || len(got.Cycle) != 2 {
		t.Fatalf("errors.As failed: %v", err)
	}
	msg := dd.Error()
	for _, want := range []string{"deadlock", "thread 0 -[mutex#1]-> thread 1 -[mutex#0]-> thread 0", "2 thread(s) blocked"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestFormatCycleEmpty(t *testing.T) {
	if got := FormatCycle(nil); !strings.Contains(got, "collective") {
		t.Fatalf("FormatCycle(nil) = %q", got)
	}
}

// TestFindCycle: the walk from thread 0 runs down a tail (0 → 1) into the
// cycle 1 → 2 → 3 → 1, which is reported from where the walk entered it;
// thread 4's self-wait comes later in id order and is not reached.
func TestFindCycle(t *testing.T) {
	edge := func(i int) WaitEdge { return WaitEdge{Waiter: i, Resource: fmt.Sprintf("mutex#%d", i)} }
	for _, tc := range []struct {
		next []int
		want string
	}{
		{[]int{1, 2, 3, 1, 4}, "thread 1 -[mutex#1]-> thread 2 -[mutex#2]-> thread 3 -[mutex#3]-> thread 1"},
		{[]int{-1, 0, 1, -1, 4}, "thread 4 -[mutex#4]-> thread 4"},
		{[]int{-1, 0, 0, 2}, FormatCycle(nil)},
	} {
		got := FormatCycle(FindCycle(len(tc.next), func(i int) int { return tc.next[i] }, edge))
		if got != tc.want {
			t.Errorf("next %v: cycle %q, want %q", tc.next, got, tc.want)
		}
	}
}

func TestThreadPanicErrorUnwrapsErrorValues(t *testing.T) {
	inner := &MisuseError{Op: "Mutex.Unlock", ThreadID: 3, Clock: 7, Kind: ErrNotHeld}
	pe := &ThreadPanicError{ThreadID: 3, Clock: 7, Value: inner}
	if !errors.Is(pe, ErrNotHeld) {
		t.Fatalf("panic containment must expose the misuse kind: %v", pe)
	}
	var mis *MisuseError
	if !errors.As(pe, &mis) || mis.Op != "Mutex.Unlock" {
		t.Fatalf("errors.As(*MisuseError) failed: %v", pe)
	}
	// Non-error panic values do not unwrap.
	pe2 := &ThreadPanicError{ThreadID: 0, Value: "boom"}
	if errors.Is(pe2, ErrNotHeld) {
		t.Fatalf("string panic value must not match sentinels")
	}
	if !strings.Contains(pe2.Error(), "boom") {
		t.Fatalf("Error() = %q", pe2.Error())
	}
}

func TestWatchdogErrorClassification(t *testing.T) {
	we := &WatchdogError{Threads: []ThreadSnapshot{{ID: 0, State: "runnable"}}}
	if !errors.Is(we, ErrStalled) {
		t.Fatalf("watchdog error must classify as ErrStalled")
	}
	if errors.Is(we, ErrDeadlock) {
		t.Fatalf("watchdog error must not classify as deadlock")
	}
}

func TestSnapshotString(t *testing.T) {
	s := ThreadSnapshot{ID: 2, Clock: 41, State: "blocked", BlockedOn: "mutex#0", Holder: 1, LastAcq: "mutex#3@40"}
	for _, want := range []string{"thread 2", "clock=41", "mutex#0", "held by thread 1", "mutex#3@40"} {
		if !strings.Contains(s.String(), want) {
			t.Fatalf("String() = %q, missing %q", s.String(), want)
		}
	}
}

func TestRaceErrorClassification(t *testing.T) {
	re := &RaceError{
		Sym: "shared", Index: 3, Addr: 19,
		First:  RaceAccess{Thread: 0, Write: true, Clock: 5, Lockset: []int{1}, Site: "main.entry+2"},
		Second: RaceAccess{Thread: 2, Write: false, Clock: 4, Site: "main.loop+0"},
	}
	if !errors.Is(re, ErrRace) {
		t.Fatalf("race error must classify as ErrRace")
	}
	if errors.Is(re, ErrDeadlock) {
		t.Fatalf("race error must not classify as deadlock")
	}
	msg := re.Error()
	for _, want := range []string{
		"shared[3]", "addr 19",
		"write by thread 0 at clock 5", "holding mutex#1",
		"read by thread 2 at clock 4", "holding no locks",
		"main.entry+2", "main.loop+0",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestDivergenceErrorForms(t *testing.T) {
	mismatch := &DivergenceError{
		Run: 2, Index: 7,
		Want:    &DivergenceEvent{Seq: 7, Lock: 1, Thread: 0, Clock: 31},
		Got:     &DivergenceEvent{Seq: 7, Lock: 1, Thread: 3, Clock: 29},
		WantLen: 12, GotLen: 8,
	}
	if !errors.Is(mismatch, ErrDivergence) {
		t.Fatalf("divergence error must classify as ErrDivergence")
	}
	msg := mismatch.Error()
	for _, want := range []string{"run 2 diverges from run 0", "event 7", "lock 1 by thread 0 at clock 31", "lock 1 by thread 3 at clock 29"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
	underrun := &DivergenceError{Run: 1, Index: 4, Want: &DivergenceEvent{Seq: 4, Lock: 0, Thread: 1, Clock: 9}, WantLen: 6, GotLen: 4}
	if !strings.Contains(underrun.Error(), "length mismatch (6 vs 4 events)") {
		t.Fatalf("underrun Error() = %q", underrun.Error())
	}
}

func TestMisuseErrorConfigurationForm(t *testing.T) {
	me := &MisuseError{Op: "Runtime.RecordSchedule", ThreadID: -1, Kind: ErrDetectorMidRun, Detail: "toggled mid-run"}
	if !errors.Is(me, ErrDetectorMidRun) {
		t.Fatalf("must classify as ErrDetectorMidRun")
	}
	msg := me.Error()
	if !strings.Contains(msg, "configuration") {
		t.Fatalf("Error() = %q, want configuration form (no bogus thread id)", msg)
	}
	if strings.Contains(msg, "thread -1") {
		t.Fatalf("Error() = %q leaks the -1 thread id", msg)
	}
}
