package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
	"repro/internal/splash"
)

// panickyFill is a Config.Fill that panics, with an error wrapping
// diag.ErrInjected, on each seeded draw below rate. Fill runs on the worker
// inside attempt's recover on every result-cache miss, so the panic is
// contained, classified transient and retried like any worker panic.
func panickyFill(seed int64, rate float64) func(context.Context, string, *Request) *Result {
	var mu sync.Mutex
	rng := detrand.New(seed, 1)
	return func(context.Context, string, *Request) *Result {
		mu.Lock()
		fire := rng.Float() < rate
		mu.Unlock()
		if fire {
			panic(fmt.Errorf("%w: worker panic", diag.ErrInjected))
		}
		return nil
	}
}

// TestChaosCrashRestartProperty is the fault-tolerance acceptance property:
// across many seeded crash/restart schedules — SIGTERM-style kills landing
// mid-queue, injected worker panics forcing retries, fsync batches lost with
// the crash — every job the service ever acknowledged completes with a
// deterministic core byte-identical to an uninterrupted reference run, no job
// is lost, and no job is duplicated in the journal.
//
// This is the Determinator argument made executable: recovery is bare
// re-execution, and weak determinism is what makes re-execution a correct
// recovery strategy.
func TestChaosCrashRestartProperty(t *testing.T) {
	// The job mix: two workloads × three perturbation seeds. Distinct cache
	// keys force real executions; the reference fixes each request's core.
	type variant struct {
		src     string
		perturb int64
	}
	var variants []variant
	for _, name := range []string{"ocean", "radiosity"} {
		b, err := splash.New(name, 4)
		if err != nil {
			t.Fatalf("splash.New(%s): %v", name, err)
		}
		src := b.Module.String()
		for p := int64(1); p <= 3; p++ {
			variants = append(variants, variant{src: src, perturb: p})
		}
	}
	reqOf := func(v variant) Request {
		return Request{Source: v.src, PerturbSeed: v.perturb}
	}

	// Uninterrupted reference run.
	refSvc := New(Config{Workers: 2})
	ref := make([]string, len(variants))
	for i, v := range variants {
		ref[i] = mustDo(t, refSvc, reqOf(v)).Core()
	}
	if err := refSvc.Close(context.Background()); err != nil {
		t.Fatalf("reference Close: %v", err)
	}

	schedules := 20
	if testing.Short() {
		schedules = 5 // -short: a fast slice of the property
	}
	for seed := int64(1); seed <= int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule-%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := detrand.New(seed, 7)
			path := filepath.Join(t.TempDir(), "jobs.journal")
			cfg := Config{
				Workers:           2,
				JournalPath:       path,
				JournalFsyncEvery: 1 + rng.IntN(8), // vary the batch window a crash can lose
				MaxRetries:        8,
				RetryBase:         time.Millisecond,
				RetryMax:          4 * time.Millisecond,
			}

			acked := map[string]int{}  // job id → variant index, ids Submit returned
			issued := map[string]int{} // every id ever returned → its incarnation
			var answered []string      // ids Do returned
			kills := 1 + rng.IntN(3)
			for life := 0; ; life++ {
				cfg.Fill = panickyFill(seed, 0.15) // each incarnation draws afresh
				svc, err := Open(cfg)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				issue := func(id string) {
					if was, ok := issued[id]; ok {
						t.Fatalf("%s issued by incarnation %d and again by incarnation %d", id, was, life)
					}
					issued[id] = life
				}
				// Submit every variant not yet acknowledged under some id. A
				// variant whose previous submission died unacknowledged is
				// simply resubmitted — the property covers acknowledged jobs.
				have := make([]bool, len(variants))
				for _, vi := range acked {
					have[vi] = true
				}
				interrupted := false
				for i, v := range variants {
					if have[i] {
						continue
					}
					id, err := svc.Submit(reqOf(v))
					if errors.Is(err, ErrClosed) {
						interrupted = true
						break
					}
					if err != nil {
						t.Fatalf("submit variant %d: %v", i, err)
					}
					issue(id)
					acked[id] = i
				}
				// Repeats. The Submit is a hit (or joins a miss) whose caller holds
				// only the id, so it returns after a sync; a Do on a variant
				// nothing has computed yet waits for it; the Dos behind it are
				// clean hits whose records stay in the batch buffer, which the
				// kill below drops.
				for r := rng.IntN(4); r > 0 && !interrupted; r-- {
					vi := rng.IntN(len(variants))
					id, err := svc.Submit(reqOf(variants[vi]))
					if err != nil {
						t.Fatalf("resubmit variant %d: %v", vi, err)
					}
					issue(id)
					acked[id] = vi
					for range 1 + rng.IntN(3) {
						res, err := svc.Do(context.Background(), reqOf(variants[vi]))
						if err != nil {
							t.Fatalf("Do variant %d: %v", vi, err)
						}
						if got := res.Core(); got != ref[vi] {
							t.Fatalf("Do variant %d: core %s, want reference %s", vi, got, ref[vi])
						}
						issue(res.JobID)
						answered = append(answered, res.JobID)
					}
				}
				if kills > 0 && !interrupted {
					// Let the pool run partway into the queue, then crash.
					time.Sleep(time.Duration(rng.IntN(12)) * time.Millisecond)
					kills--
					svc.Kill()
					continue
				}
				// Final incarnation: drain everything acknowledged, ever.
				for id := range acked {
					if _, err := svc.Wait(context.Background(), id); err != nil {
						t.Fatalf("job %s failed after recovery: %v", id, err)
					}
				}
				for id, vi := range acked {
					v, err := svc.Lookup(id)
					if err != nil {
						t.Fatalf("Lookup %s: %v", id, err)
					}
					if v.Status != StatusDone || v.Result == nil {
						t.Fatalf("job %s: status %q after drain", id, v.Status)
					}
					if got := v.Result.Core(); got != ref[vi] {
						t.Fatalf("job %s (variant %d): core %s, want reference %s", id, vi, got, ref[vi])
					}
				}
				snap := svc.Snapshot()
				if snap.JournalDegraded {
					t.Fatal("journal degraded during crash/restart schedule")
				}
				// Every id Submit returned, and of the ids Do returned those whose
				// records no kill dropped: nothing else, nothing twice.
				known := 0
				for _, id := range answered {
					if _, err := svc.Lookup(id); err == nil {
						known++
					}
				}
				if snap.JournalJobs != len(acked)+known {
					t.Fatalf("journal holds %d jobs, want exactly the %d acknowledged and the %d of %d answered through Do that survived (lost or duplicated)",
						snap.JournalJobs, len(acked), known, len(answered))
				}
				if err := svc.Close(context.Background()); err != nil {
					t.Fatalf("final Close: %v", err)
				}
				break
			}

			// Post-mortem: one more recovery serves every job from the journal
			// and the background cross-checks find zero divergences.
			cfg.Fill = panickyFill(seed, 0.15)
			svc, err := Open(cfg)
			if err != nil {
				t.Fatalf("post-mortem Open: %v", err)
			}
			for id, vi := range acked {
				v := waitStatus(t, svc, id, StatusDone)
				if got := v.Result.Core(); got != ref[vi] {
					t.Fatalf("post-mortem %s: core %s, want %s", id, got, ref[vi])
				}
			}
			// Every distinct claim is checked, and none twice: a job answered
			// through Do repeats a variant some Submit acknowledged, so the
			// acknowledged variants are all the claims the journal makes.
			// Close waits for the background checks.
			claims := map[int]bool{}
			for _, vi := range acked {
				claims[vi] = true
			}
			if err := svc.Close(context.Background()); err != nil {
				t.Fatalf("post-mortem Close: %v", err)
			}
			snap := svc.Snapshot()
			if snap.RecoveryChecks != int64(len(claims)) {
				t.Fatalf("recovery checks = %d, want one per distinct claim, %d", snap.RecoveryChecks, len(claims))
			}
			if snap.Divergences != 0 {
				t.Fatalf("recovery cross-check found %d divergences", snap.Divergences)
			}
		})
	}
}

// TestChaosKillDuringSubmit: killing the service between acknowledgment and
// completion never loses the job — the submitted record was fsynced before
// the id was returned, so even an immediate kill recovers it.
func TestChaosKillDuringSubmit(t *testing.T) {
	b, err := splash.New("volrend", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()
	path := filepath.Join(t.TempDir(), "jobs.journal")

	refSvc := New(Config{Workers: 1})
	want := mustDo(t, refSvc, Request{Source: src}).Core()
	refSvc.Close(context.Background())

	svc, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id, err := svc.Submit(Request{Source: src})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	svc.Kill() // no grace at all

	svc2, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close(context.Background())
	v := waitStatus(t, svc2, id, StatusDone)
	if got := v.Result.Core(); got != want {
		t.Fatalf("recovered core %s, want %s", got, want)
	}
}
