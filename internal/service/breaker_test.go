package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// TestBreakerProbeWithoutVerdict: a half-open probe that ends without a
// verdict — refused after the breaker admitted it, or failed by something
// other than a divergence — hands its slot back, so the next submission is
// the probe and a clean one closes the circuit. A probe that kept its slot
// would refuse every later submission with ErrCircuitOpen, for good, while
// Ready reported the service ready.
func TestBreakerProbeWithoutVerdict(t *testing.T) {
	ctx := context.Background()
	big := srcOf(t, "radiosity")
	for _, tc := range []struct {
		name  string
		probe func(s *Service) error
		want  error
	}{
		{"failed", func(s *Service) error {
			_, err := s.Do(ctx, Request{Source: deadlockProgram, Threads: 2})
			return err
		}, diag.ErrDeadlock},
		{"refused", func(s *Service) error {
			_, err := s.Do(ctx, Request{Source: big}) // past MaxInflightBytes: the gate after the breaker's
			return err
		}, ErrOverloaded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			s := New(Config{Workers: 1, BreakerThreshold: 1, MaxInflightBytes: int64(len(big)) - 1})
			defer s.Close(ctx)
			s.breaker.now = func() time.Time { return now }
			s.breaker.onDivergence()
			now = now.Add(breakerCooldown)
			if err := tc.probe(s); !errors.Is(err, tc.want) {
				t.Fatalf("probe: err = %v, want %v", err, tc.want)
			}
			if state, _ := s.breaker.snapshot(); state != "half-open" {
				t.Fatalf("after the probe: breaker %s, want half-open", state)
			}
			now = now.Add(time.Hour)
			if _, err := s.Do(ctx, Request{Source: fastProgram}); err != nil {
				t.Fatalf("next submission: %v", err)
			}
			if state, _ := s.breaker.snapshot(); state != "closed" {
				t.Fatalf("after a clean probe: breaker %s, want closed", state)
			}
		})
	}
}

// breakerModel is the breaker's contract as a reference state machine.
// Closed counts divergences, a success forgives one, and the threshold
// opens it. Open refuses until the cooldown has passed, then half-opens.
// Half-open admits one probe at a time: a success closes, a divergence
// re-opens, and a probe released without either lets the next one in.
type breakerModel struct {
	threshold int
	cooldown  time.Duration
	state     string
	count     int
	opened    time.Time
	trips     int64
	prober    int // the job probing while half-open, -1 for none
}

func (m *breakerModel) allow(now time.Time, id int) bool {
	if m.state == "open" && now.Sub(m.opened) >= m.cooldown {
		m.state = "half-open"
	}
	switch {
	case m.state == "closed":
		return true
	case m.state == "open" || m.prober >= 0:
		return false
	}
	m.prober = id
	return true
}

func (m *breakerModel) success() {
	switch m.state {
	case "half-open":
		m.state, m.count, m.prober = "closed", 0, -1
	case "closed":
		m.count = max(m.count-1, 0)
	}
}

func (m *breakerModel) divergence(now time.Time) {
	if m.state == "closed" {
		m.count++
	}
	if m.state == "half-open" || m.state == "closed" && m.count >= m.threshold {
		m.state, m.opened, m.count, m.prober = "open", now, 0, -1
		m.trips++
	}
}

func (m *breakerModel) release(id int) {
	if m.prober == id {
		m.prober = -1
	}
}

// TestBreakerAgainstModel runs 200 seeded sequences of 50 steps against the
// breaker and against breakerModel. A step is a submission (admitted, or
// refused after allow), a job finishing with a success, a divergence or a
// failure that is neither, or the clock advancing. Every allow answer and
// every snapshot must agree. The breaker must also stay live: with the
// cooldown past and no probe in flight, the next submission is admitted.
func TestBreakerAgainstModel(t *testing.T) {
	const cooldown = 10 * time.Second
	type flight struct {
		id     int
		ticket uint64
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := detrand.New(seed, 13)
		now := time.Unix(0, 0)
		b := newBreaker(1+rng.IntN(3), cooldown)
		b.now = func() time.Time { return now }
		m := &breakerModel{threshold: b.threshold, cooldown: cooldown, state: "closed", prober: -1}
		var inflight []flight
		for step := 0; step < 50; step++ {
			switch op := rng.IntN(6); {
			case op < 2:
				ok, ticket := b.allow()
				if want := m.allow(now, step); ok != want {
					t.Fatalf("seed %d step %d: allow = %v, model %v", seed, step, ok, want)
				}
				switch {
				case ok && rng.IntN(3) == 0: // refused by a later gate
					b.release(ticket)
					m.release(step)
				case ok:
					inflight = append(inflight, flight{step, ticket})
				}
			case op < 5 && len(inflight) > 0:
				k := rng.IntN(len(inflight))
				f := inflight[k]
				inflight = append(inflight[:k], inflight[k+1:]...)
				switch rng.IntN(3) {
				case 0:
					b.onSuccess()
					m.success()
				case 1:
					b.onDivergence()
					m.divergence(now)
				default:
					b.release(f.ticket)
					m.release(f.id)
				}
			default:
				now = now.Add(time.Duration(rng.IntN(6)) * time.Second)
			}
			if state, trips := b.snapshot(); state != m.state || trips != m.trips {
				t.Fatalf("seed %d step %d: breaker %s/%d, model %s/%d", seed, step, state, trips, m.state, m.trips)
			}
		}
		for _, f := range inflight {
			b.release(f.ticket) // each ends without a verdict
		}
		now = now.Add(cooldown)
		if ok, _ := b.allow(); !ok {
			state, _ := b.snapshot()
			t.Fatalf("seed %d: %s breaker refused a submission past the cooldown with no probe in flight", seed, state)
		}
	}
}
