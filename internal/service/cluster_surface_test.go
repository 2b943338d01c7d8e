package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/det"
	"repro/internal/diag"
	"repro/internal/nemesis"
	"repro/internal/splash"
	"repro/internal/vfs"
)

// srcOf renders one splash workload to textual IR.
func srcOf(t testing.TB, name string) string {
	t.Helper()
	b, err := splash.New(name, 4)
	if err != nil {
		t.Fatalf("splash.New(%s): %v", name, err)
	}
	return b.Module.String()
}

// TestBackoffOverflowClamp: the full-jitter exponential must saturate at max
// for any attempt count, including ones whose naive doubling overflows
// time.Duration. Before the clamp, base·2ⁿ⁻¹ could wrap negative under a
// huge cap and produce a zero delay — a hot retry loop exactly when the
// service is least able to afford one.
func TestBackoffOverflowClamp(t *testing.T) {
	huge := newBackoff(3*time.Millisecond, time.Duration(math.MaxInt64), 7)
	for _, n := range []int{1, 2, 10, 62, 63, 64, 100, 500, math.MaxInt32} {
		d := huge.delay(n)
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v, want positive (overflow clamp)", n, d)
		}
		if d > time.Duration(math.MaxInt64) {
			t.Fatalf("attempt %d: delay %v above cap", n, d)
		}
	}
	// A sane cap still bounds every attempt by the envelope.
	b := newBackoff(5*time.Millisecond, 250*time.Millisecond, 7)
	for n := 1; n <= 1000; n++ {
		if d := b.delay(n); d <= 0 || d > 250*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside (0, 250ms]", n, d)
		}
	}
	// The clamp changes nothing in the pre-saturation range: exact powers.
	c := newBackoff(4*time.Millisecond, 64*time.Millisecond, 7)
	for n, want := range map[int]time.Duration{1: 4, 2: 8, 3: 16, 4: 32, 5: 64, 6: 64, 99: 64} {
		want *= time.Millisecond
		if d := c.delay(n); d <= 0 || d > want {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", n, d, want)
		}
	}
}

// TestBreakerDeterministicTrace is the breaker's determinism property: for a
// fixed failure schedule (a seeded stream of divergence/success/allow events
// and clock advances), the closed→open→half-open state trace is a pure
// function of the schedule — two breakers fed the same schedule emit
// byte-identical traces, and every transition in the trace is one the state
// machine legally allows.
func TestBreakerDeterministicTrace(t *testing.T) {
	run := func(seed int64) []string {
		rng := det.NewRand(seed, 11)
		now := time.Unix(0, 0)
		b := newBreaker(3, 10*time.Second)
		b.now = func() time.Time { return now }
		var tr []string
		for step := 0; step < 400; step++ {
			switch rng.IntN(4) {
			case 0:
				b.onDivergence()
			case 1:
				b.onSuccess()
			case 2:
				b.allow()
			case 3:
				now = now.Add(time.Duration(rng.IntN(6)) * time.Second)
			}
			state, trips := b.snapshot()
			tr = append(tr, fmt.Sprintf("%s/%d", state, trips))
		}
		return tr
	}

	for seed := int64(1); seed <= 10; seed++ {
		a, b := run(seed), run(seed)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d step %d: trace %q vs %q — breaker not deterministic", seed, i, a[i], b[i])
			}
		}
		// Transition legality: closed can only open, open can only half-open,
		// and a trip count increase must land the machine in the open state.
		legal := map[string]map[string]bool{
			"closed":    {"closed": true, "open": true},
			"open":      {"open": true, "half-open": true},
			"half-open": {"half-open": true, "open": true, "closed": true},
		}
		prev, prevTrips := "closed", int64(0)
		for i, s := range a {
			var state string
			var trips int64
			for j := 0; j < len(s); j++ {
				if s[j] == '/' {
					state = s[:j]
					fmt.Sscanf(s[j+1:], "%d", &trips)
					break
				}
			}
			if !legal[prev][state] {
				t.Fatalf("seed %d step %d: illegal transition %s → %s", seed, i, prev, state)
			}
			if trips < prevTrips {
				t.Fatalf("seed %d step %d: trip count went backwards (%d → %d)", seed, i, prevTrips, trips)
			}
			if trips > prevTrips && state != "open" {
				t.Fatalf("seed %d step %d: trip recorded but state is %s, not open", seed, i, state)
			}
			prev, prevTrips = state, trips
		}
	}

	// Distinct schedules must be able to produce distinct traces (the
	// property is determinism, not constancy).
	a, c := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("every seed produced an identical trace; schedule is not driving the machine")
	}
}

// parkFirst holds the first job a service's Fill hook sees until release is
// called, so a Workers: 1 service keeps the rest of its queue for a steal.
// parked returns once that job is held; release is safe to call twice.
func parkFirst(cfg *Config) (parked func(), release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var first, done sync.Once
	cfg.Fill = func(ctx context.Context, _ string, _ *Request) *Result {
		first.Do(func() {
			close(entered)
			select {
			case <-gate:
			case <-ctx.Done():
			}
		})
		return nil
	}
	return func() { <-entered }, func() { done.Do(func() { close(gate) }) }
}

// TestStealCompleteRoundTrip: a queued job lent to a peer and completed with
// the peer's (deterministically identical) result finishes through the
// normal path — done, journaled, marked Remote — and a duplicate completion
// for the same id is dropped.
func TestStealCompleteRoundTrip(t *testing.T) {
	src := srcOf(t, "ocean")
	path := filepath.Join(t.TempDir(), "jobs.journal")

	// The "peer": an independent service computing the borrowed request.
	peer := New(Config{Workers: 1})
	defer peer.Close(context.Background())

	cfg := Config{Workers: 1, JournalPath: path, StealReclaim: time.Minute}
	parked, release := parkFirst(&cfg)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer release()
	// Queue six jobs while the single worker holds the first, then steal.
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := svc.Submit(Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	parked()
	stolen := svc.StealQueued(3)
	release()
	if len(stolen) != 3 {
		t.Fatalf("stole %d jobs, want 3 of the 5 queued", len(stolen))
	}
	for _, sj := range stolen {
		res, err := peer.ExecuteDetached(context.Background(), sj.Req)
		if err != nil {
			t.Fatalf("peer execution of %s: %v", sj.ID, err)
		}
		svc.CompleteStolen(sj.ID, res)
		svc.CompleteStolen(sj.ID, res) // duplicate: must be dropped silently
	}
	for i, id := range ids {
		v := waitStatus(t, svc, id, StatusDone)
		want := mustDo(t, peer, Request{Source: src, PerturbSeed: int64(i)})
		if coreOf(v.Result) != coreOf(want) {
			t.Fatalf("job %s core %s, want %s", id, coreOf(v.Result), coreOf(want))
		}
	}
	snap := svc.Snapshot()
	if snap.JobsStolen != int64(len(stolen)) {
		t.Fatalf("stolen counter = %d, want %d", snap.JobsStolen, len(stolen))
	}
	if snap.JournalJobs != len(ids) {
		t.Fatalf("journal holds %d jobs, want %d (no loss, no duplication)", snap.JournalJobs, len(ids))
	}
	remote := false
	for _, sj := range stolen {
		v, err := svc.Lookup(sj.ID)
		if err != nil {
			t.Fatalf("Lookup %s: %v", sj.ID, err)
		}
		if v.Result != nil && v.Result.Remote {
			remote = true
		}
	}
	if !remote {
		t.Fatal("no stolen job carries the Remote marker")
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStealReclaim: a stealer that never reports back only delays the job —
// the reclaim timer re-enqueues it and it completes locally. An explicit
// abort does the same immediately.
func TestStealReclaim(t *testing.T) {
	src := srcOf(t, "volrend")
	cfg := Config{Workers: 1, StealReclaim: 20 * time.Millisecond}
	parked, release := parkFirst(&cfg)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close(context.Background())
	defer release()

	var ids []string
	for i := 0; i < 5; i++ {
		id, err := svc.Submit(Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	parked()
	stolen := svc.StealQueued(2)
	release()
	if len(stolen) != 2 {
		t.Fatalf("stole %d jobs, want 2 of the 4 queued", len(stolen))
	}
	svc.CompleteStolen(stolen[1].ID, nil) // explicit hand-back
	// The rest are reclaimed by timer; every job must complete locally.
	for _, id := range ids {
		v := waitStatus(t, svc, id, StatusDone)
		if v.Result.Remote {
			t.Fatalf("job %s marked Remote without a completion", id)
		}
	}
	if snap := svc.Snapshot(); snap.StealReclaims == 0 {
		t.Fatal("no reclaim counted")
	}
}

// TestPeerFillAndOffer exercises the fill/offer surface end to end at the
// service layer: an offered entry is self-checked, installable, servable via
// ResultByKey, and a Fill hook that returns it produces a PeerFilled result
// that survives a 100% local cross-check; corrupt and divergent peer data is
// rejected without ever failing the client (except as a typed divergence).
func TestPeerFillAndOffer(t *testing.T) {
	src := srcOf(t, "ocean")
	other := srcOf(t, "raytrace")

	// Capture (key, result) pairs via the Offer hook of a producer service.
	type kr struct {
		key string
		res *Result
	}
	offers := make(chan kr, 16)
	producer := New(Config{Workers: 1, Offer: func(key string, res *Result, req *Request) {
		select {
		case offers <- kr{key, res}:
		default:
		}
	}})
	defer producer.Close(context.Background())
	mustDo(t, producer, Request{Source: src})
	oceanOffer := <-offers
	mustDo(t, producer, Request{Source: other})
	rayOffer := <-offers
	if oceanOffer.res.Schedule == nil {
		t.Fatal("offer carries no schedule")
	}

	// Offer → install → serve.
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	if err := svc.OfferResult(oceanOffer.key, oceanOffer.res, nil); err != nil {
		t.Fatalf("OfferResult: %v", err)
	}
	got, ok := svc.ResultByKey(oceanOffer.key)
	if !ok || got.ScheduleHash != oceanOffer.res.ScheduleHash || got.Schedule == nil {
		t.Fatalf("ResultByKey after offer = %+v, %v", got, ok)
	}
	// The installed entry is a real cache hit for the equivalent submission.
	res := mustDo(t, svc, Request{Source: src})
	if !res.Cached {
		t.Fatal("offered entry did not serve the local submission as a cache hit")
	}
	if coreOf(res) != coreOf(oceanOffer.res) {
		t.Fatalf("offered core %s != local %s", coreOf(oceanOffer.res), coreOf(res))
	}

	// A tampered offer (hash does not match its schedule) is refused.
	bad := *oceanOffer.res
	bad.ScheduleHash = "deadbeefdeadbeef"
	if err := svc.OfferResult("some-key", &bad, nil); err == nil {
		t.Fatal("self-inconsistent offer accepted")
	}

	// A conflicting offer for an existing key is a divergence: rejected,
	// counted, breaker fed — the cached entry stands.
	conflict := *rayOffer.res
	conflict.Schedule = rayOffer.res.Schedule
	if err := svc.OfferResult(oceanOffer.key, &conflict, nil); !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("conflicting offer error = %v, want ErrDivergence", err)
	}
	if snap := svc.Snapshot(); snap.Divergences == 0 {
		t.Fatal("conflicting offer not counted as a divergence")
	}

	// Fill hook, happy path: the result is served PeerFilled and the 100%
	// cross-check re-executes it locally without divergence.
	fills := 0
	filled := New(Config{Workers: 1, SelfCheckRate: 1, Fill: func(ctx context.Context, key string, req *Request) *Result {
		fills++
		if key == oceanOffer.key {
			return oceanOffer.res
		}
		return nil
	}})
	defer filled.Close(context.Background())
	fres := mustDo(t, filled, Request{Source: src})
	if !fres.PeerFilled {
		t.Fatal("fill hook result not marked PeerFilled")
	}
	if coreOf(fres) != coreOf(oceanOffer.res) {
		t.Fatalf("peer-filled core %s, want %s", coreOf(fres), coreOf(oceanOffer.res))
	}
	snap := filled.Snapshot()
	if snap.PeerFills != 1 || snap.PeerFillChecks != 1 || snap.Divergences != 0 {
		t.Fatalf("fill counters = %+v, want 1 fill / 1 check / 0 divergences", snap)
	}

	// Fill returning a corrupt payload: rejected, job still succeeds locally
	// — peer-path failure is never a client-visible error.
	corrupt := New(Config{Workers: 1, Fill: func(ctx context.Context, key string, req *Request) *Result {
		c := *oceanOffer.res
		c.ScheduleHash = "0000000000000000"
		return &c
	}})
	defer corrupt.Close(context.Background())
	cres := mustDo(t, corrupt, Request{Source: src})
	if cres.PeerFilled {
		t.Fatal("corrupt fill served as peer-filled")
	}
	if coreOf(cres) != coreOf(oceanOffer.res) {
		t.Fatal("fallback recomputation produced a different core")
	}
	if snap := corrupt.Snapshot(); snap.PeerFillRejects == 0 {
		t.Fatal("corrupt fill not counted as rejected")
	}

	// Fill returning a self-consistent but WRONG result (a different
	// program's answer): the mandatory cross-check catches it as a typed
	// divergence — never silently served.
	lying := New(Config{Workers: 1, SelfCheckRate: 1, Fill: func(ctx context.Context, key string, req *Request) *Result {
		return rayOffer.res
	}})
	defer lying.Close(context.Background())
	_, err := lying.Do(context.Background(), Request{Source: src})
	if !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("lying peer fill error = %v, want ErrDivergence", err)
	}
}

// TestReadyGates: Ready is nil on a healthy service, and reports the first
// failing gate — degraded journal, open breaker, closed service.
func TestReadyGates(t *testing.T) {
	src := srcOf(t, "ocean")

	healthy := New(Config{Workers: 1})
	if err := healthy.Ready(); err != nil {
		t.Fatalf("healthy service not ready: %v", err)
	}
	healthy.Close(context.Background())
	if err := healthy.Ready(); err == nil {
		t.Fatal("closed service reports ready")
	}

	// Journal degradation flips readiness off while the service keeps serving.
	ffs := nemesis.NewFaultFS(nemesis.New(1), vfs.OS{}, nemesis.FaultFSConfig{WriteErrRate: 1})
	ffs.Arm(true) // the first append fails
	degraded, err := Open(Config{
		Workers:     1,
		JournalPath: filepath.Join(t.TempDir(), "jobs.journal"),
		FS:          ffs,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer degraded.Close(context.Background())
	mustDo(t, degraded, Request{Source: src}) // trips the injected journal error
	if err := degraded.Ready(); err == nil {
		t.Fatal("journal-degraded service reports ready")
	}

	// An open breaker flips readiness off; ErrCircuitOpen is identifiable.
	tripped := New(Config{Workers: 1, BreakerThreshold: 1})
	defer tripped.Close(context.Background())
	tripped.breaker.onDivergence()
	err = tripped.Ready()
	if err == nil || !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker readiness = %v, want ErrCircuitOpen", err)
	}
}
