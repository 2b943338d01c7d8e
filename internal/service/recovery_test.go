package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
)

// TestRecoveryChecksEachDistinctClaim: a journal of 20k Do hits of one
// request and k other requests makes 1 + k distinct claims, and recovery
// recomputes exactly those — one proof per claim, not one per record — off
// the queue: Open returns with nothing queued.
func TestRecoveryChecksEachDistinctClaim(t *testing.T) {
	const hits, k = 20000, 3
	path := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{Workers: 2, JournalPath: path}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range hits {
		mustDo(t, svc, Request{Source: fastProgram})
	}
	for seed := range int64(k) {
		mustDo(t, svc, Request{Source: fastProgram, PerturbSeed: seed + 1})
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := svc.Snapshot().QueueDepth; d != 0 {
		t.Fatalf("queue depth %d after reopening a log of finished jobs: a recovery check is on the queue", d)
	}
	if err := svc.Close(context.Background()); err != nil { // waits for the checks
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	if snap.RecoveredJobs != hits+k || snap.RecoveryChecks != 1+k || snap.Divergences != 0 {
		t.Fatalf("recovered %d jobs, %d checks, %d divergences; want %d, %d, 0",
			snap.RecoveredJobs, snap.RecoveryChecks, snap.Divergences, hits+k, 1+k)
	}
}

// waitChecks waits until recovery has started its checks of checks distinct
// claims and the result cache holds cached entries.
func waitChecks(t *testing.T, s *Service, checks int64, cached int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		snap := s.Snapshot()
		if snap.RecoveryChecks == checks && snap.ResultCacheSize == cached {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d recovery checks and %d cached results, want %d and %d", snap.RecoveryChecks, snap.ResultCacheSize, checks, cached)
		}
	}
}

// TestRecoveryKeepsVerifiedEntry: the recompute that reproduces a journaled
// claim stays in the result cache, so after a restart the claim's first
// request is a clean hit, journaled as one record naming the claim the log
// already holds.
func TestRecoveryKeepsVerifiedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{Workers: 1, JournalPath: path}
	req := Request{Source: fastProgram, Threads: 2}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustDo(t, svc, req)
	mustDo(t, svc, req) // a hit: the log holds its claim record
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitChecks(t, svc, 1, 1)
	if res := mustDo(t, svc, req); !res.Cached {
		t.Fatal("the first request after the restart was not a hit")
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	added := string(after[len(before):])
	if n := strings.Count(added, `"claim":"claim-`); n != 1 || strings.Contains(added, `"type":"submitted"`) || strings.Contains(added, `"type":"claim"`) {
		t.Fatalf("the hit after the restart appended:\n%s\nwant one completed record naming the claim", added)
	}
}

// TestRecoveryChecksShareWorkers: recovery's checks run in the workers'
// turns, not beside them, so a restart never simulates more than Workers
// requests at a time. With its one worker parked on a recovered incomplete
// job, no check runs; released, the worker finishes the job and every check.
func TestRecoveryChecksShareWorkers(t *testing.T) {
	const k = 64
	path := filepath.Join(t.TempDir(), "jobs.journal")
	svc, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for seed := range int64(k) {
		mustDo(t, svc, Request{Source: fastProgram, PerturbSeed: seed})
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A job submitted and never finished: Open queues it the moment the
	// worker starts, so the worker's first few turns reach it.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	pending := Request{Source: fastProgram, PerturbSeed: k}
	if err := normalize(&pending); err != nil { // as journaled
		t.Fatal(err)
	}
	if _, err := f.Write(journalLine(t, journalRecord{Type: recSubmitted, ID: "job-100000", Req: &pending})); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := Config{Workers: 1, JournalPath: path}
	parked, release := parkFirst(&cfg)
	defer release()
	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parked()
	before := svc.Snapshot().RecoveryChecks
	time.Sleep(20 * time.Millisecond)
	if after := svc.Snapshot().RecoveryChecks; after != before || before >= k {
		t.Fatalf("recovery checks went %d → %d of %d while the only worker was parked on a job", before, after, k)
	}
	release()
	waitStatus(t, svc, "job-100000", StatusDone)
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := svc.Snapshot(); snap.RecoveryChecks != k || snap.Divergences != 0 {
		t.Fatalf("%d checks, %d divergences; want %d and 0", snap.RecoveryChecks, snap.Divergences, k)
	}
}

// TestRecoveryConflictingClaims: two completed records for one request that
// claim different schedule hashes are a divergence found by grouping; then
// each claim is recomputed, and only the job whose hash the recompute does
// not reproduce fails, with its verdict journaled — the next boot replays it
// failed and finds nothing left to dispute.
func TestRecoveryConflictingClaims(t *testing.T) {
	req := Request{Source: fastProgram, Threads: 1}
	ref := New(Config{Workers: 1})
	honest := mustDo(t, ref, req).ScheduleHash
	ref.Close(context.Background())

	path := filepath.Join(t.TempDir(), "jobs.journal")
	var image []byte
	for _, rec := range []journalRecord{
		{Type: recSubmitted, ID: "job-1", Req: &req},
		{Type: recCompleted, ID: "job-1", Result: &Result{ScheduleHash: honest}},
		{Type: recSubmitted, ID: "job-2", Req: &req},
		{Type: recCompleted, ID: "job-2", Result: &Result{ScheduleHash: "deadbeefdeadbeef"}},
	} {
		image = append(image, journalLine(t, rec)...)
	}
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := Config{Workers: 1, JournalPath: path, BreakerThreshold: 10}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, "job-2", StatusFailed)
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	if snap.RecoveryChecks != 2 || snap.Divergences != 2 {
		t.Fatalf("%d checks, %d divergences; want 2 (one per claim) and 2 (the conflict, then the losing claim)",
			snap.RecoveryChecks, snap.Divergences)
	}
	// The conflict blames neither job (a recompute decides which claim
	// lost) and names both; the recompute that loses names job-2.
	conflict := func(r FailureRecord) bool {
		return r.JobID == "" && strings.Contains(r.Error, "job-1 claims") && strings.Contains(r.Error, "job-2 claims")
	}
	if f := snap.RecentFailures; len(f) != 2 || !conflict(f[0]) || f[1].JobID != "job-2" {
		t.Fatalf("recent failures = %+v, want the conflict first, then job-2's recompute", f)
	}
	if v, _ := svc.Lookup("job-1"); v.Status != StatusDone {
		t.Fatalf("job-1, whose hash reproduces: %s, want done", v.Status)
	}

	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	if v, _ := svc.Lookup("job-2"); v.Status != StatusFailed || v.ErrorKind != "divergence" {
		t.Fatalf("job-2 after a restart = %+v, want its journaled divergence", v)
	}
	if v, _ := svc.Lookup("job-1"); v.Status != StatusDone || v.Result.ScheduleHash != honest {
		t.Fatalf("job-1 after a restart = %+v, want its honest result", v)
	}
}

// TestSnapshotRefusesConflictingClaims: conflicting claims anywhere in a
// snapshot refuse it before anything is recomputed, past the claims the spot
// audit would reach; and the audit's budget counts distinct claims, so many
// records of one request do not use it up.
func TestSnapshotRefusesConflictingClaims(t *testing.T) {
	type claimed struct {
		id   string
		req  Request
		hash string
	}
	lines := func(jobs ...claimed) [][]byte {
		var out [][]byte
		for _, c := range jobs {
			out = append(out, journalLine(t, journalRecord{Type: recSubmitted, ID: c.id, Req: &c.req}),
				journalLine(t, journalRecord{Type: recCompleted, ID: c.id, Result: &Result{ScheduleHash: c.hash}}))
		}
		return out
	}
	a, b, c := Request{Source: fastProgram}, Request{Source: fastProgram, PerturbSeed: 1}, Request{Source: fastProgram, PerturbSeed: 2}

	svc := New(Config{Workers: 1, BreakerThreshold: 10})
	defer svc.Close(context.Background())
	conflicting := lines(claimed{"job-1", a, "00"}, claimed{"job-2", b, "00"},
		claimed{"job-3", c, "0000000000000001"}, claimed{"job-4", c, "0000000000000002"})
	if err := svc.CheckSnapshotRecords(context.Background(), conflicting); !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("conflicting claims: err = %v, want ErrDivergence", err)
	}
	if snap := svc.Snapshot(); snap.Divergences != 1 || snap.InstrCacheMisses+snap.InstrCacheHits != 0 {
		t.Fatalf("%d divergences, %d instrumentation lookups; want 1 and none (no recompute)",
			snap.Divergences, snap.InstrCacheMisses+snap.InstrCacheHits)
	}

	honest := mustDo(t, svc, a).ScheduleHash
	var jobs []claimed
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4", "job-5"} {
		jobs = append(jobs, claimed{id, a, honest})
	}
	jobs = append(jobs, claimed{"job-6", b, "00000000000000ff"})
	if err := svc.CheckSnapshotRecords(context.Background(), lines(jobs...)); !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("a wrong second claim behind five records of the first: err = %v, want ErrDivergence", err)
	}
}

// TestOversizedCountsAreMisuse: a program declaring more registers, locks or
// barriers than ir.Verify admits, or a global of negative size or past the
// global word budget, fails through Do and Submit as a typed configuration
// misuse, before anything sized by the count is allocated (unbounded, the
// register file alone was 8 MB a frame here, and a negative global panicked
// every worker attempt into a transient retries_exhausted). A function at
// the register bound that recurses until the call depth runs out is a
// runtime failure, and its thread's stack stays near 10,000 × 256 × 8 B.
func TestOversizedCountsAreMisuse(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	for name, src := range map[string]string{
		"regs":        "module m\nfunc main() regs 1048576 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"regs+1":      "module m\nfunc main() regs 257 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"locks":       "module m\nlocks 1048576\nfunc main() regs 1 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"barriers":    "module m\nbarriers 1048576\nfunc main() regs 1 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"global -1":   "module m\nglobal g -1\nfunc main() regs 1 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"global 2^40": "module m\nglobal g 1099511627776\nfunc main() regs 1 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"global sum":  "module m\nglobal a 600000\nglobal b 600000\nfunc main() regs 1 {\nentry:\n  r0 = tid\n  ret 0\n}\n",
		"spawn":       "module m\nfunc child() regs 1 {\nentry:\n  ret 0\n}\nfunc main() regs 3 {\nentry:\n  r0 = const 0\n  jmp loop\nloop:\n  r1 = lt r0, 20000\n  br r1, body, done\nbody:\n  r2 = spawn child()\n  r0 = add r0, 1\n  jmp loop\ndone:\n  ret r0\n}\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, doErr := svc.Do(context.Background(), Request{Source: src})
		id, err := svc.Submit(Request{Source: src, PerturbSeed: 1})
		if err != nil {
			t.Fatalf("%s: Submit: %v", name, err)
		}
		_, waitErr := svc.Wait(context.Background(), id)
		runtime.ReadMemStats(&after)
		for _, err := range []error{doErr, waitErr} {
			var me *diag.MisuseError
			if !errors.As(err, &me) || !errors.Is(err, diag.ErrBadConfig) || Classify(err) != "misuse" {
				t.Fatalf("%s: err = %v (class %q), want a *diag.MisuseError of kind ErrBadConfig", name, err, Classify(err))
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: refusing the program allocated %d bytes", name, grew)
		}
	}

	const deep = "module m\nfunc main() regs 256 {\nentry:\n  r1 = call main()\n  ret r1\n}\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := svc.Do(context.Background(), Request{Source: deep, Threads: 1})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "call stack overflow") {
		t.Fatalf("recursion at the register bound: err = %v, want a call stack overflow", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("recursion at the register bound allocated %d bytes", grew)
	}
}
