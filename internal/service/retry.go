package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// Retry policy: a job's failures split into two families, and only one is
// worth retrying.
//
//   - Deterministic failures — deadlock, race, divergence, misuse, parse
//     errors — are properties of the (program, config) pair: by weak
//     determinism a retry provably reproduces them. They fail the job on the
//     first attempt.
//   - Transient failures — contained worker panics and injected faults —
//     are properties of the serving environment, not the program. They are
//     retried with exponential backoff and deterministic jitter, up to
//     Config.MaxRetries, after which the job fails with a typed
//     *diag.RetryError (errors.Is(err, diag.ErrRetriesExhausted)).
//
// Deadline expiry is neither: it is policy, typed *diag.TimeoutError, and
// never retried (the budget is already spent).

// retryable reports whether err is a transient failure worth re-attempting.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, diag.ErrDeadline), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false // the time budget is spent; a retry cannot help
	case errors.Is(err, diag.ErrDeadlock), errors.Is(err, diag.ErrRace),
		errors.Is(err, diag.ErrDivergence), errors.Is(err, diag.ErrBadConfig),
		errors.Is(err, diag.ErrRaceBackend), errors.Is(err, diag.ErrDetectorMidRun):
		return false // deterministic: a retry provably reproduces the failure
	case errors.Is(err, diag.ErrInjected):
		return true // chaos-harness fault: transient by construction
	case errors.Is(err, errContainedPanic):
		return true // contained worker panic: environment, not program
	default:
		return false
	}
}

// errContainedPanic tags panics the worker recovered from a job execution,
// so the retry classifier can tell them apart from structured reports.
var errContainedPanic = errors.New("contained worker panic")

// backoff computes retry delays: exponential from Base, capped at Max, with
// full deterministic jitter drawn from a detrand.Rand stream — the same
// generator family every injector in the repo uses, so retry schedules in
// tests are a pure function of Config.RetrySeed.
type backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *detrand.Rand
}

func newBackoff(base, max time.Duration, seed int64) *backoff {
	return &backoff{base: base, max: max, rng: detrand.New(seed, 2)}
}

// delay returns the pause before retry attempt n (n = 1 for the first
// retry): a uniformly jittered draw from (0, min(base·2ⁿ⁻¹, max)]. Full
// jitter (rather than equal or decorrelated) keeps herds of jobs that failed
// together from retrying together.
//
// The exponential is computed as a clamped shift, not repeated doubling:
// base·2ⁿ⁻¹ fits below max exactly when base ≤ max>>(n-1), and any larger
// attempt count — including ones whose doubling would overflow
// time.Duration and come out negative — saturates at max.
func (b *backoff) delay(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := b.max
	if shift := uint(n - 1); shift < 63 && b.base <= b.max>>shift {
		d = b.base << shift
	}
	if d <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.rng.Next()%uint64(d)) + 1
}

// sleep pauses for d but returns early — with the context's error — if ctx
// is done first, so a job whose deadline expires mid-backoff fails promptly.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}
