package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/splash"
	"repro/internal/trace"
)

// deadlockProgram self-deadlocks: every thread re-locks a mutex it already
// holds, so the instant all threads are blocked the simulator's deadlock
// detector fires with a structured report.
const deadlockProgram = `
module deadlock
locks 1

func main() regs 2 {
entry:
  lock 0
  lock 0
  ret r0
}
`

// racyProgram races on shared[0] with no lock — the detector's typed report
// must come back as the job error.
const racyProgram = `
module racy
global shared 4

func main() regs 4 {
entry:
  r0 = tid
  store shared[0], r0
  ret r0
}
`

// splashSources renders the five paper workloads to textual IR — the service
// accepts programs as source, exactly like a remote client would submit them.
func splashSources(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range splash.Names() {
		b, err := splash.New(name, 4)
		if err != nil {
			t.Fatalf("splash.New(%s): %v", name, err)
		}
		out[name] = b.Module.String()
	}
	return out
}

func mustDo(t testing.TB, s *Service, req Request) *Result {
	t.Helper()
	res, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	return res
}

// TestServiceConcurrentDeterminism is the service-level determinism
// acceptance test: ≥20 concurrent clients submit an interleaved mix of the
// five splash workloads — some identical, some distinct via PerturbSeed
// jitter — and every response's schedule hash must equal the single-client
// reference, cache hits included. The sampled self-check must report zero
// divergences.
func TestServiceConcurrentDeterminism(t *testing.T) {
	sources := splashSources(t)

	// Single-client reference hashes from an independent service instance.
	ref := map[string]string{}
	refSvc := New(Config{Workers: 1})
	defer refSvc.Close(context.Background())
	for name, src := range sources {
		res := mustDo(t, refSvc, Request{Source: src})
		if res.ScheduleLen == 0 {
			t.Fatalf("%s: empty reference schedule", name)
		}
		ref[name] = res.ScheduleHash
	}

	svc := New(Config{
		Workers:       8,
		QueueDepth:    2048,
		SelfCheckRate: 0.5,
		SelfCheckSeed: 7,
	})
	defer svc.Close(context.Background())

	const clients = 24
	seeds := []int64{0, 11, 23} // distinct cache keys; schedules must not move
	names := splash.Names()
	var wg sync.WaitGroup
	errCh := make(chan error, clients*len(names))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range names {
				// Rotate the workload order per client so submissions
				// interleave; vary the jitter seed so identical and distinct
				// cache keys mix.
				name := names[(i+c)%len(names)]
				res, err := svc.Do(context.Background(), Request{
					Source:      sources[name],
					PerturbSeed: seeds[(c+i)%len(seeds)],
				})
				if err != nil {
					errCh <- fmt.Errorf("client %d %s: %w", c, name, err)
					return
				}
				if res.ScheduleHash != ref[name] {
					errCh <- fmt.Errorf("client %d %s: hash %s != reference %s (cached=%t seed=%d)",
						c, name, res.ScheduleHash, ref[name], res.Cached, seeds[(c+i)%len(seeds)])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	snap := svc.Snapshot()
	if snap.Divergences != 0 {
		t.Fatalf("self-check reported %d divergences", snap.Divergences)
	}
	if snap.SelfChecks == 0 {
		t.Fatalf("sampled self-check never ran (hits=%d)", snap.ResultCacheHits)
	}
	if snap.ResultCacheHits == 0 {
		t.Fatalf("no result-cache hits across %d identical submissions", clients*len(names))
	}
	wantJobs := int64(clients*len(names) + 0)
	if snap.JobsCompleted != wantJobs {
		t.Fatalf("completed %d jobs, want %d (failed %d)", snap.JobsCompleted, wantJobs, snap.JobsFailed)
	}
}

// TestServiceWarmCacheSpeedup: a warm-cache submission must be at least 10×
// faster than the cold one (acceptance criterion). Radiosity is the most
// lock-intensive workload, so its cold simulation dominates a cache lookup
// by orders of magnitude.
func TestServiceWarmCacheSpeedup(t *testing.T) {
	b, err := splash.New("radiosity", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	req := Request{Source: b.Module.String()}

	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())

	start := time.Now()
	cold := mustDo(t, svc, req)
	coldDur := time.Since(start)
	if cold.Cached {
		t.Fatal("first submission reported a cache hit")
	}

	warmDur := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start = time.Now()
		warm := mustDo(t, svc, req)
		if d := time.Since(start); d < warmDur {
			warmDur = d
		}
		if !warm.Cached {
			t.Fatalf("repeat submission %d missed the cache", i)
		}
		if warm.ScheduleHash != cold.ScheduleHash {
			t.Fatalf("warm hash %s != cold %s", warm.ScheduleHash, cold.ScheduleHash)
		}
	}
	if coldDur < 10*warmDur {
		t.Fatalf("warm cache not ≥10× faster: cold %v, best warm %v", coldDur, warmDur)
	}
}

// TestServiceSelfCheckDetectsCorruption plants a corrupted schedule in the
// result cache and verifies the self-check turns the next hit into a typed
// *diag.DivergenceError instead of serving the bad entry.
func TestServiceSelfCheckDetectsCorruption(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	req := Request{Source: b.Module.String()}

	svc := New(Config{Workers: 1, SelfCheckRate: 1})
	defer svc.Close(context.Background())
	mustDo(t, svc, req)

	// Corrupt every cached schedule (there is exactly one entry) by perturbing
	// the first event's thread id.
	svc.results.mu.Lock()
	for _, el := range svc.results.items {
		ent := el.Value.(*lruEntry[string, *resultEntry]).val
		bad := trace.New()
		for i, e := range ent.schedule.Events() {
			if i == 0 {
				e.Thread++
			}
			bad.Record(e.Lock, e.Thread, e.Clock)
		}
		ent.schedule = bad
	}
	svc.results.mu.Unlock()

	_, err = svc.Do(context.Background(), req)
	if !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("err = %v, want ErrDivergence", err)
	}
	var de *diag.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("no *DivergenceError in %v", err)
	}
	if svc.Snapshot().Divergences != 1 {
		t.Fatalf("divergence counter = %d, want 1", svc.Snapshot().Divergences)
	}
}

// TestServiceFailureContainment: jobs that deadlock or race fail with their
// existing structured reports while the worker pool keeps serving.
func TestServiceFailureContainment(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close(context.Background())

	_, err := svc.Do(context.Background(), Request{Source: deadlockProgram, Threads: 2})
	if !errors.Is(err, diag.ErrDeadlock) {
		t.Fatalf("deadlock job err = %v, want ErrDeadlock", err)
	}
	var dl *diag.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("no *DeadlockError in %v", err)
	}

	_, err = svc.Do(context.Background(), Request{Source: racyProgram, Threads: 2, Race: true})
	if !errors.Is(err, diag.ErrRace) {
		t.Fatalf("racy job err = %v, want ErrRace", err)
	}

	// The pool survived: a healthy job still completes.
	b, errS := splash.New("ocean", 4)
	if errS != nil {
		t.Fatalf("splash.New: %v", errS)
	}
	res := mustDo(t, svc, Request{Source: b.Module.String()})
	if res.ScheduleHash == "" {
		t.Fatal("healthy job returned no schedule hash")
	}
	snap := svc.Snapshot()
	if snap.JobsFailed != 2 || snap.JobsCompleted != 1 {
		t.Fatalf("failed/completed = %d/%d, want 2/1", snap.JobsFailed, snap.JobsCompleted)
	}
}

// noArgBuiltinProgram calls a default builtin with no arguments, then stores
// through its value: in bounds only if a missing argument reads 0.
const noArgBuiltinProgram = `
module noargs
global g 1
locks 1

func main() regs 2 {
entry:
  r0 = call memset()
  lock 0
  store g[r0], r0
  unlock 0
  ret r0
}
`

// TestBuiltinWithoutArguments: a default builtin's value is its last
// argument, and with none it is 0, as every missing argument reads. Both
// interpreters once read args[-1] there: the worker panicked, the job was
// retried as transient until retries_exhausted, and detserve answered 500.
// Baseline and instrumented jobs must both complete, with the same result on
// two fresh services.
func TestBuiltinWithoutArguments(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		req := Request{Source: noArgBuiltinProgram, Threads: 2, Baseline: baseline}
		var runs [2]*Result
		for i := range runs {
			svc := New(Config{Workers: 1})
			runs[i] = mustDo(t, svc, req)
			svc.Close(context.Background())
		}
		a, b := runs[0], runs[1]
		if a.ScheduleHash != b.ScheduleHash || a.Cycles != b.Cycles || a.Acquisitions != 2 || b.Acquisitions != 2 {
			t.Fatalf("baseline=%t: runs differ or lost a lock: %+v vs %+v", baseline, a, b)
		}
	}
}

// TestServiceValidation: every malformed submission is a typed
// configuration-level *diag.MisuseError.
func TestServiceValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())

	cases := []struct {
		name string
		req  Request
		kind error
	}{
		{"empty source", Request{}, diag.ErrBadConfig},
		{"negative threads", Request{Source: "x", Threads: -1}, diag.ErrBadConfig},
		{"bad preset", Request{Source: "x", Preset: "O9"}, diag.ErrBadConfig},
		{"race on baseline", Request{Source: "x", Baseline: true, Race: true}, diag.ErrRaceBackend},
	}
	for _, tc := range cases {
		_, err := svc.Submit(tc.req)
		if !errors.Is(err, tc.kind) {
			t.Errorf("%s: err = %v, want kind %v", tc.name, err, tc.kind)
		}
		var me *diag.MisuseError
		if !errors.As(err, &me) || me.ThreadID != -1 {
			t.Errorf("%s: want configuration-level *MisuseError, got %v", tc.name, err)
		}
	}

	// Parse failures surface as job errors, not panics or server faults.
	_, err := svc.Do(context.Background(), Request{Source: "not an ir program"})
	if err == nil {
		t.Fatal("malformed program accepted")
	}

	if _, err := svc.Lookup("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Lookup unknown = %v, want ErrUnknownJob", err)
	}
}

// TestServiceQueueBackpressure: a full bounded queue rejects with the typed
// ErrQueueFull rather than blocking the submitter.
func TestServiceQueueBackpressure(t *testing.T) {
	b, err := splash.New("radiosity", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	svc := New(Config{Workers: 1, QueueDepth: 1})
	defer svc.Close(context.Background())

	var ids []string
	sawFull := false
	for i := 0; i < 8; i++ {
		// Distinct seeds force cold simulations so the single worker stays
		// busy while the queue fills.
		id, err := svc.Submit(Request{Source: src, PerturbSeed: int64(i + 1)})
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit %d: err = %v, want ErrQueueFull", i, err)
			}
			sawFull = true
			continue
		}
		ids = append(ids, id)
	}
	if !sawFull {
		t.Fatal("queue never filled (8 cold radiosity jobs, depth 1, 1 worker)")
	}
	// Accepted jobs all complete.
	for _, id := range ids {
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatalf("accepted job %s failed: %v", id, err)
		}
	}
}

// TestServiceCloseDrains: Close refuses new work but runs everything already
// accepted to completion.
func TestServiceCloseDrains(t *testing.T) {
	b, err := splash.New("volrend", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()

	svc := New(Config{Workers: 2, QueueDepth: 32})
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := svc.Submit(Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := svc.Submit(Request{Source: src}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	for _, id := range ids {
		view, err := svc.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup %s: %v", id, err)
		}
		if view.Status != StatusDone {
			t.Fatalf("job %s drained to status %q, want done", id, view.Status)
		}
	}
}

// TestServiceArtifacts: optional payloads appear exactly when requested, and
// the overhead row matches across cached and uncached responses.
func TestServiceArtifacts(t *testing.T) {
	b, err := splash.New("volrend", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	req := Request{Source: b.Module.String()}

	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())

	lean := mustDo(t, svc, req)
	if lean.Schedule != nil || lean.Overhead != nil || lean.Clockable != nil {
		t.Fatal("unrequested artifacts present")
	}

	full := req
	full.Artifacts = Artifacts{Schedule: true, Stats: true, OverheadRow: true}
	rich := mustDo(t, svc, full)
	if !rich.Cached {
		t.Fatal("artifact request should still hit the result cache")
	}
	if rich.Schedule == nil || rich.Schedule.Len() != rich.ScheduleLen {
		t.Fatal("schedule artifact missing or inconsistent")
	}
	if len(rich.Clockable) == 0 {
		t.Fatal("stats artifact missing clockable functions")
	}
	if rich.Overhead == nil || rich.Overhead.BaselineCycles == 0 {
		t.Fatal("overhead row missing")
	}
	// Second overhead request serves the row cached on the entry.
	again := mustDo(t, svc, full)
	if *again.Overhead != *rich.Overhead {
		t.Fatalf("overhead row changed across cached responses: %+v vs %+v", again.Overhead, rich.Overhead)
	}
}

// TestServiceBaselineJobs: baseline (FCFS, uninstrumented) jobs cache and
// replay like deterministic ones — the simulator is deterministic for a
// fixed seed — but are keyed separately from deterministic runs.
func TestServiceBaselineJobs(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	req := Request{Source: b.Module.String(), Baseline: true}

	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())

	first := mustDo(t, svc, req)
	second := mustDo(t, svc, req)
	if !second.Cached || !second.InstrCached {
		t.Fatalf("baseline repeat not cached (cached=%t instr=%t)", second.Cached, second.InstrCached)
	}
	if first.ScheduleHash != second.ScheduleHash || first.Cycles != second.Cycles {
		t.Fatal("baseline results not reproducible")
	}

	det := mustDo(t, svc, Request{Source: b.Module.String()})
	if det.Cached {
		t.Fatal("deterministic job shared a cache entry with the baseline")
	}
}

// BenchmarkServiceColdSubmit measures the uncached pipeline (parse +
// instrument + simulate) per submission.
func BenchmarkServiceColdSubmit(bm *testing.B) {
	b, err := splash.New("radiosity", 4)
	if err != nil {
		bm.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()
	svc := New(Config{Workers: 1, ResultCacheSize: 1, InstrCacheSize: 1})
	defer svc.Close(context.Background())
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		// A fresh seed per iteration defeats the result cache.
		if _, err := svc.Do(context.Background(), Request{Source: src, PerturbSeed: int64(i + 1)}); err != nil {
			bm.Fatal(err)
		}
	}
}

// BenchmarkServiceWarmSubmit measures a result-cache hit end to end; the
// warm/cold ratio is the cache's value (acceptance: ≥10×).
func BenchmarkServiceWarmSubmit(bm *testing.B) {
	b, err := splash.New("radiosity", 4)
	if err != nil {
		bm.Fatalf("splash.New: %v", err)
	}
	req := Request{Source: b.Module.String()}
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	if _, err := svc.Do(context.Background(), req); err != nil {
		bm.Fatal(err)
	}
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		res, err := svc.Do(context.Background(), req)
		if err != nil {
			bm.Fatal(err)
		}
		if !res.Cached {
			bm.Fatal("cache miss in warm benchmark")
		}
	}
}
