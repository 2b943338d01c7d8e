package service

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission control defines the service's overload behavior: every rejection
// is typed, cheap, and issued before any pipeline work happens, so flooding
// the queue produces 429s — never a crash, never unbounded memory.
//
// Two load-shedding gates run at Submit, after validation:
//
//   - queue depth (the existing bounded queue, ErrQueueFull);
//   - in-flight bytes: the sum of queued + running request source sizes,
//     bounded by Config.MaxInflightBytes (ErrOverloaded). Source text is the
//     dominant per-job allocation, so this bounds submission-driven memory
//     no matter how large individual programs are.
//
// Above them sits a circuit breaker keyed on determinism self-check and
// recovery cross-check divergences. A divergence means the service's cache
// soundness claim failed — the one state in which serving more traffic makes
// things worse — so repeated divergences (Config.BreakerThreshold) open the
// circuit and shed all submissions (ErrCircuitOpen) for breakerCooldown.
// The breaker then half-opens: one probe job is admitted, and its verdict — a
// divergence or a success — re-opens or closes the circuit. A probe that
// ends without one (refused after admission, or failed some other way)
// hands its slot back and the next submission probes instead.

// Admission rejection sentinels, wrapped in *diag.MisuseError like the
// queue-full rejection so errors.Is and errors.As both work.
var (
	// ErrOverloaded: in-flight request bytes exceed Config.MaxInflightBytes
	// (load shedding — retry after the queue drains).
	ErrOverloaded = fmt.Errorf("service overloaded: in-flight bytes limit reached")
	// ErrCircuitOpen: the divergence circuit breaker is open; the service is
	// refusing work while its determinism contract is in doubt.
	ErrCircuitOpen = fmt.Errorf("circuit open: repeated determinism divergences")
)

// RetryAfter suggests, in seconds, when a rejected submission is worth
// retrying: the HTTP front end turns this into a Retry-After header on its
// 429/503 responses. Zero means the error is not a backpressure rejection.
func RetryAfter(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		return 1 // the queue drains at job-execution speed; retry soon
	case errors.Is(err, ErrCircuitOpen):
		return int(breakerCooldown / time.Second)
	default:
		return 0
	}
}

// breakerCooldown is how long an open circuit sheds submissions before it
// half-opens, and what RetryAfter tells a shed client to wait.
const breakerCooldown = 30 * time.Second

// breaker state machine states.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is the divergence circuit breaker. The clock is injectable (now)
// so the state machine is unit-testable without wall-clock sleeps.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu          sync.Mutex
	state       breakerState
	divergences int       // consecutive divergences while closed
	openedAt    time.Time // when the circuit last opened
	trips       int64     // lifetime open transitions, for stats
	probe       uint64    // half-open: the ticket of the probe in flight, 0 if none
	tickets     uint64    // probe tickets issued
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a submission may pass. In the open state it flips to
// half-open once the cooldown elapses; in half-open it admits one probe at a
// time and rejects everything else. A probe gets a nonzero ticket, which its
// submission hands to release if the probe ends without a verdict.
func (b *breaker) allow() (ok bool, probe uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, 0
		}
		b.state = breakerHalfOpen
	}
	if b.probe != 0 {
		return false, 0 // a probe is already in flight
	}
	b.tickets++
	b.probe = b.tickets
	return true, b.probe
}

// release gives back the probe slot held by ticket, if it still is: the probe
// was refused after allow, or failed with neither a success nor a
// divergence, so it says nothing about soundness. The circuit stays
// half-open and the next submission is the probe.
func (b *breaker) release(ticket uint64) {
	if ticket == 0 {
		return // not a probe
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probe == ticket {
		b.probe = 0
	}
}

// onDivergence records a determinism divergence. While closed it counts
// toward the trip threshold; in half-open it re-opens immediately (the probe
// failed).
func (b *breaker) onDivergence() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.divergences++
		if b.divergences >= b.threshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	}
}

// onSuccess records a job that completed without divergence: in half-open it
// closes the circuit; while closed it decays the divergence count so widely
// separated divergences do not accumulate into a trip.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerClosed
		b.divergences = 0
		b.probe = 0
	case breakerClosed:
		if b.divergences > 0 {
			b.divergences--
		}
	}
}

// trip opens the circuit; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.trips++
	b.divergences = 0
	b.probe = 0
}

// snapshot returns the breaker's state name and lifetime trip count.
func (b *breaker) snapshot() (string, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.trips
}
