package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// countingDoer wraps a transport and tracks request lifecycles: how many are
// in flight right now and how many finished with a cancelled context — the
// observable difference between "the loser was cut loose when the winner
// returned" and "the loser lingered until its own deadline".
type countingDoer struct {
	inner     Doer
	inflight  atomic.Int64
	started   atomic.Int64
	cancelled atomic.Int64

	mu        sync.Mutex
	deadlines []time.Time // each request's context deadline
}

func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	d.started.Add(1)
	d.inflight.Add(1)
	deadline, _ := req.Context().Deadline()
	d.mu.Lock()
	d.deadlines = append(d.deadlines, deadline)
	d.mu.Unlock()
	defer d.inflight.Add(-1)
	resp, err := d.inner.Do(req)
	if req.Context().Err() != nil {
		d.cancelled.Add(1)
	}
	return resp, err
}

// stallFirstResult wraps a node handler and blocks the first fill request
// until its context is cancelled (or a long fallback timer fires) — the
// stuck-owner scenario that forces the hedge to win the race.
type stallFirstResult struct {
	inner http.Handler

	mu      sync.Mutex
	stalled bool
}

func (h *stallFirstResult) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == fillRoute.path {
		h.mu.Lock()
		first := !h.stalled
		h.stalled = true
		h.mu.Unlock()
		if first {
			select {
			case <-r.Context().Done():
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			case <-time.After(30 * time.Second):
			}
		}
	}
	h.inner.ServeHTTP(w, r)
}

// TestHedgedFillCancelsLoser: when the hedge wins, the losing attempt's
// context must be cancelled the moment the winner returns — the straggler's
// request goroutine drains immediately instead of squatting on its
// connection until the shared fill deadline.
func TestHedgedFillCancelsLoser(t *testing.T) {
	net := NewLoopNet()
	peers := []string{"node-a", "node-b"}
	counting := &countingDoer{}
	a := tnode(t, net, "node-a", peers, func(c *Config) {
		counting.inner = c.Client
		c.Client = counting
		c.HedgeAfter = 20 * time.Millisecond
		// A deadline far beyond the test's patience: if the loser is only
		// released by this timeout, the inflight assertion below fails first.
		c.FillTimeout = 60 * time.Second
		c.RepairInterval = -1 // only fill traffic may reach the counter
	})
	b := tnode(t, net, "node-b", peers, func(c *Config) { c.RepairInterval = -1 })
	defer a.Close(context.Background())
	defer b.Close(context.Background())

	// Warm the owner's cache, then stall its next (first counted) fill.
	req, key := keyOwnedBy(t, a, srcOf(t, "ocean"), false)
	waitResult(t, b.Service(), mustSubmit(t, b, req))
	net.Register("node-b", &stallFirstResult{inner: b.Handler()})

	start := time.Now()
	res := a.fill(context.Background(), key, &req)
	if res == nil {
		t.Fatal("hedged fill returned no result despite a warm owner")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fill took %v — it waited out the stalled attempt instead of racing past it", elapsed)
	}
	if got := a.Stats().FillHedges; got != 1 {
		t.Fatalf("FillHedges = %d, want 1", got)
	}
	if got := counting.started.Load(); got != 2 {
		t.Fatalf("started %d fill requests, want 2 (primary + hedge)", got)
	}
	// One deadline bounds the exchange end to end: the hedge does not get a
	// fresh FillTimeout of its own.
	counting.mu.Lock()
	first, second := counting.deadlines[0], counting.deadlines[1]
	counting.mu.Unlock()
	if first.IsZero() || !first.Equal(second) || first.After(start.Add(61*time.Second)) {
		t.Fatalf("attempt deadlines %v and %v, want both FillTimeout after the fill began (%v)", first, second, start)
	}

	// The loser must drain promptly: its context was cancelled by the
	// winner's return, not by the 60s fill deadline or the 30s stall timer.
	deadline := time.Now().Add(2 * time.Second)
	for counting.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d fill request(s) still in flight 2s after the winner returned — loser leaked", counting.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if counting.cancelled.Load() == 0 {
		t.Fatal("no request observed a cancelled context — the loser was never cut loose")
	}
}

// TestCloseWaitsForPeerRequests: Close lets the service drain its queue, and
// a worker that computes a peer-owned miss during that drain offers the
// result. Close must not return while that offer — or any other request the
// node started — is still in flight or yet to be sent (it used to start the
// offer after its one wait had returned).
func TestCloseWaitsForPeerRequests(t *testing.T) {
	net := NewLoopNet()
	peers := []string{"node-a", "node-b"}
	counting := &countingDoer{}
	a := tnode(t, net, "node-a", peers, func(c *Config) {
		counting.inner = c.Client
		c.Client = counting
		c.Service.Workers = 1
	})
	b := tnode(t, net, "node-b", peers, nil)
	defer b.Close(context.Background())

	req, _ := keyOwnedBy(t, a, srcOf(t, "ocean"), false)
	backlog(t, a, []service.Request{req})
	net.SetLatency("node-a", "node-b", 20*time.Millisecond)
	if err := a.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	inflight, started := counting.inflight.Load(), counting.started.Load()
	time.Sleep(100 * time.Millisecond) // five latencies: a request left behind has started by now
	if inflight != 0 || counting.started.Load() != started {
		t.Fatalf("Close returned with %d peer request(s) in flight and %d yet to start", inflight, counting.started.Load()-started)
	}
	if st := a.Stats(); st.OffersSent+st.OfferFails == 0 {
		t.Fatalf("test staging broke: the drained miss was never offered: %+v", st)
	}
}
