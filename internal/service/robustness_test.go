package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/splash"
)

// lateTimer is a context whose deadline has passed while its timer has not
// fired (Err is still nil), as when every processor is busy and the runtime
// runs the timer late.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestSimulateReadsDeadlineOffTheClock: the simulator's cancel hook stops a
// run whose deadline has passed even when the context's timer has not fired.
func TestSimulateReadsDeadlineOffTheClock(t *testing.T) {
	b, err := splash.New("raytrace", 4)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	req := Request{Source: b.Module.String()}
	if err := normalize(&req); err != nil {
		t.Fatal(err)
	}
	ie, _, err := svc.instrumented(&req, nil, new(StageLatency))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.simulate(context.Background(), ie, &req); err != nil {
		t.Fatalf("no deadline: %v", err)
	}
	if _, err := svc.simulate(lateTimer{context.Background()}, ie, &req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a passed deadline whose timer has not fired: err = %v, want DeadlineExceeded", err)
	}
}

// TestServiceDeadline: a job with a too-small budget fails with a typed
// *diag.TimeoutError while concurrent jobs without deadlines complete with
// deterministic cores identical to an undisturbed reference — cancellation
// is cooperative and never perturbs other runs.
func TestServiceDeadline(t *testing.T) {
	b, err := splash.New("raytrace", 4) // the slowest workload (~25ms cold)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	// Per-seed references: schedules are invariant under PerturbSeed but
	// physical cycle counts are not, so cores compare like for like.
	refSvc := New(Config{Workers: 1})
	ref := mustDo(t, refSvc, Request{Source: src}).Core()
	refs := make([]string, 3)
	for i := range refs {
		refs[i] = mustDo(t, refSvc, Request{Source: src, PerturbSeed: int64(i + 1)}).Core()
	}
	refSvc.Close(context.Background())

	svc := New(Config{Workers: 4})
	defer svc.Close(context.Background())

	var wg sync.WaitGroup
	cores := make([]string, 3)
	for i := range cores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Do(context.Background(), Request{Source: src, PerturbSeed: int64(i + 1)})
			if err != nil {
				t.Errorf("concurrent job %d: %v", i, err)
				return
			}
			cores[i] = res.Core()
		}(i)
	}
	_, err = svc.Do(context.Background(), Request{Source: src, DeadlineMS: 1})
	wg.Wait()

	if !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("deadline job err = %v, want ErrDeadline", err)
	}
	var te *diag.TimeoutError
	if !errors.As(err, &te) || te.Deadline != time.Millisecond {
		t.Fatalf("want *TimeoutError with 1ms deadline, got %v", err)
	}
	if Classify(err) != "timeout" {
		t.Fatalf("Classify(timeout) = %q", Classify(err))
	}
	for i, c := range cores {
		if c != refs[i] {
			t.Fatalf("concurrent job %d perturbed by neighbor's deadline: %s != %s", i, c, refs[i])
		}
	}
	snap := svc.Snapshot()
	if snap.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", snap.Timeouts)
	}

	// Deadlines are validated, not silently clamped.
	if _, err := svc.Submit(Request{Source: src, DeadlineMS: -5}); !errors.Is(err, diag.ErrBadConfig) {
		t.Fatalf("negative deadline = %v, want ErrBadConfig", err)
	}
	// A generous deadline changes nothing about the result.
	res := mustDo(t, svc, Request{Source: src, DeadlineMS: 60_000})
	if res.Core() != ref {
		t.Fatalf("deadline-bounded run diverged: %s != %s", res.Core(), ref)
	}
}

// TestServiceRetryExhaustion: with every attempt panicking, the retry budget
// runs out and the job fails with a typed *diag.RetryError wrapping the last
// transient cause.
func TestServiceRetryExhaustion(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	svc := New(Config{
		Workers:    1,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		RetryMax:   2 * time.Millisecond,
		Fill:       panickyFill(3, 1),
	})
	defer svc.Close(context.Background())

	_, err = svc.Do(context.Background(), Request{Source: b.Module.String()})
	if !errors.Is(err, diag.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	var re *diag.RetryError
	if !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("want *RetryError with 3 attempts, got %v", err)
	}
	if !errors.Is(err, diag.ErrInjected) {
		t.Fatalf("RetryError should wrap the last injected cause: %v", err)
	}
	if Classify(err) != "retries_exhausted" {
		t.Fatalf("Classify = %q", Classify(err))
	}
	if snap := svc.Snapshot(); snap.Retries != 2 {
		t.Fatalf("retries counter = %d, want 2", snap.Retries)
	}
}

// TestServiceRetryRecovers: a fifty-fifty panic rate with a deep retry budget
// always converges, the result is untouched by the retries, and deterministic
// failures are never retried.
func TestServiceRetryRecovers(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	refSvc := New(Config{Workers: 1})
	ref := mustDo(t, refSvc, Request{Source: src}).Core()
	refSvc.Close(context.Background())

	svc := New(Config{
		Workers:    2,
		MaxRetries: 40,
		RetryBase:  time.Millisecond,
		RetryMax:   2 * time.Millisecond,
		Fill:       panickyFill(5, 0.5),
	})
	defer svc.Close(context.Background())

	for i := 0; i < 8; i++ {
		res, err := svc.Do(context.Background(), Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i == 0 && res.Core() != ref {
			t.Fatalf("retried result diverged: %s != %s", res.Core(), ref)
		}
	}
	if snap := svc.Snapshot(); snap.Retries == 0 {
		t.Fatal("no retries at 50% panic rate")
	}

	// Deterministic failures burn no retry budget (checked on a fault-free
	// service so injected panics cannot contribute retries of their own).
	clean := New(Config{Workers: 1, MaxRetries: 10, RetryBase: time.Millisecond})
	defer clean.Close(context.Background())
	if _, err := clean.Do(context.Background(), Request{Source: deadlockProgram, Threads: 2}); !errors.Is(err, diag.ErrDeadlock) {
		t.Fatalf("deadlock err = %v", err)
	}
	if got := clean.Snapshot().Retries; got != 0 {
		t.Fatalf("deadlock was retried %d times", got)
	}
}

// TestServiceOverloadSheds: submissions past the in-flight-bytes bound are
// shed with the typed ErrOverloaded and a retry hint — load shedding is a
// pre-queue rejection, not a crash or a block.
func TestServiceOverloadSheds(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	svc := New(Config{Workers: 1, MaxInflightBytes: int64(len(src)) + 10})
	defer svc.Close(context.Background())

	// First job fits; with seeds forcing cold runs the worker stays busy long
	// enough for the second submission to see its bytes still in flight.
	id, err := svc.Submit(Request{Source: src, PerturbSeed: 1})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = svc.Submit(Request{Source: src, PerturbSeed: 2})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload submit = %v, want ErrOverloaded", err)
	}
	var me *diag.MisuseError
	if !errors.As(err, &me) {
		t.Fatalf("overload rejection not a typed *MisuseError: %v", err)
	}
	if RetryAfter(err) != 1 {
		t.Fatalf("RetryAfter(overloaded) = %d, want 1", RetryAfter(err))
	}
	if Classify(err) != "overloaded" {
		t.Fatalf("Classify = %q", Classify(err))
	}

	// The admitted job's bytes release on completion; capacity returns.
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatalf("admitted job: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err = svc.Submit(Request{Source: src, PerturbSeed: 3}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never returned: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := svc.Snapshot(); snap.MaxInflightBytes != int64(len(src))+10 {
		t.Fatalf("snapshot MaxInflightBytes = %d", snap.MaxInflightBytes)
	}
}

// admits is allow's answer without the probe ticket.
func admits(b *breaker) bool { ok, _ := b.allow(); return ok }

// TestBreakerStateMachine drives the divergence circuit breaker through its
// full closed → open → half-open → closed cycle with an injected clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, 10*time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		b.onDivergence()
	}
	if !admits(b) {
		t.Fatal("breaker tripped below threshold")
	}
	b.onSuccess() // decay: 2 → 1
	b.onDivergence()
	if !admits(b) {
		t.Fatal("success decay did not absorb a divergence")
	}
	b.onDivergence()
	b.onDivergence() // 3rd consecutive-equivalent: trip
	if state, trips := b.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("breaker = %s/%d, want open/1", state, trips)
	}
	if admits(b) {
		t.Fatal("open breaker admitted a job")
	}

	now = now.Add(11 * time.Second)
	if !admits(b) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if state, _ := b.snapshot(); state != "half-open" {
		t.Fatalf("state after probe admit = %s, want half-open", state)
	}
	if admits(b) {
		t.Fatal("half-open breaker admitted a second job while probing")
	}

	// Probe diverges: re-open immediately.
	b.onDivergence()
	if state, trips := b.snapshot(); state != "open" || trips != 2 {
		t.Fatalf("breaker after failed probe = %s/%d, want open/2", state, trips)
	}

	// Second probe succeeds: close.
	now = now.Add(11 * time.Second)
	if !admits(b) {
		t.Fatal("second probe refused")
	}
	b.onSuccess()
	if state, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state after clean probe = %s, want closed", state)
	}
	if !admits(b) {
		t.Fatal("closed breaker refused work")
	}
}

// TestServiceClientDisconnect: a synchronous (Do / ?wait=1) client that goes
// away cancels its job instead of pinning a worker — the job lands failed
// with a typed timeout, and the pool immediately serves the next client.
func TestServiceClientDisconnect(t *testing.T) {
	b, err := splash.New("raytrace", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Do(ctx, Request{Source: src, PerturbSeed: 1})
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the job start
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do = %v, want context.Canceled", err)
	}

	// The worker is free: a healthy job completes promptly, and the abandoned
	// job's record shows the typed cancellation.
	res := mustDo(t, svc, Request{Source: src, PerturbSeed: 2})
	if res.ScheduleHash == "" {
		t.Fatal("follow-up job returned no hash")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := svc.Lookup("job-1")
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if v.Status == StatusFailed {
			if v.ErrorKind != "timeout" {
				t.Fatalf("abandoned job kind = %q, want timeout", v.ErrorKind)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job stuck at %q", v.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := svc.Snapshot(); snap.Timeouts == 0 {
		t.Fatal("disconnect not counted as a timeout")
	}
}

// TestBackoffDeterministic: retry delays are a pure function of the seed and
// stay within the exponential envelope.
func TestBackoffDeterministic(t *testing.T) {
	a := newBackoff(5*time.Millisecond, 40*time.Millisecond, 42)
	b := newBackoff(5*time.Millisecond, 40*time.Millisecond, 42)
	c := newBackoff(5*time.Millisecond, 40*time.Millisecond, 43)
	var differs bool
	for n := 1; n <= 8; n++ {
		da, db, dc := a.delay(n), b.delay(n), c.delay(n)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v vs %v", n, da, db)
		}
		if dc != da {
			differs = true
		}
		bound := 5 * time.Millisecond << (n - 1)
		if bound > 40*time.Millisecond {
			bound = 40 * time.Millisecond
		}
		if da <= 0 || da > bound {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", n, da, bound)
		}
	}
	if !differs {
		t.Fatal("distinct seeds produced identical jitter streams")
	}
}

// TestServiceRetainBound: finished-job records are evicted oldest-first past
// Config.RetainJobs, so the job table cannot grow without bound.
func TestServiceRetainBound(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	svc := New(Config{Workers: 1, RetainJobs: 2})
	defer svc.Close(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		res := mustDo(t, svc, Request{Source: src, PerturbSeed: int64(i)})
		ids = append(ids, res.JobID)
	}
	for _, id := range ids[:3] {
		if _, err := svc.Lookup(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("evicted job %s still visible (err=%v)", id, err)
		}
	}
	for _, id := range ids[3:] {
		if _, err := svc.Lookup(id); err != nil {
			t.Fatalf("retained job %s lost: %v", id, err)
		}
	}
}
