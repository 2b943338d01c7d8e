package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/detrand"
)

// Doer is the one-method transport the cluster needs: *http.Client satisfies
// it for real deployments, and LoopNet satisfies it in-memory for
// deterministic partition tests. Every cross-node byte flows through a Doer,
// so a test that controls the Doer controls the network.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// LoopNet is an in-memory cluster transport: nodes register their HTTP
// handlers under logical addresses, and per-node clients route requests by
// URL host. Each *directed* link (from → to) can be independently degraded,
// which is what real networks do and symmetric models cannot express.
// SetLatency and Flake are the knobs the workload driver turns; the others
// are set by this package's tests (loopnet_test.go):
//
//   - Partition severs both directions; PartitionOneWay severs one, so A's
//     requests to B die while B still reaches A — the asymmetric partition
//     that splits leader-election and probe protocols in practice. A cut on
//     the *reverse* direction fails the exchange after the handler ran: the
//     request was delivered and its side effects happened, only the response
//     was lost — the classic ack-lost fault.
//   - SetLatency delays a link by a fixed duration (deterministic, not
//     jittered — schedules must replay identically).
//   - Flake makes a link drop each request with a seeded deterministic
//     probability (connection reset before delivery).
//   - CorruptResponses flips one byte of each response body with a seeded
//     deterministic probability — the fault the integrity plane must catch.
//   - StripSums drops the wire-checksum header from everything crossing a
//     link, as a header-rewriting proxy would: every peer message must then
//     be refused, never decoded unverified.
//
// All knobs are per directed link and take effect immediately; the same
// injection script yields the same observable failures on every run.
type LoopNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	links    map[string]*linkState // keyed "from>to" (directed)
}

// linkState is one directed link's degradations.
type linkState struct {
	cut       bool
	stripSums bool
	latency   time.Duration
	// flake/corrupt fire with their rate against their own deterministic
	// stream; draws happen in request order under the net lock.
	flakeRate   float64
	flakeRand   *detrand.Rand
	corruptRate float64
	corruptRand *detrand.Rand
}

// NewLoopNet returns an empty in-memory network.
func NewLoopNet() *LoopNet {
	return &LoopNet{handlers: make(map[string]http.Handler), links: make(map[string]*linkState)}
}

// Register attaches handler at the logical address addr (e.g. "node-a").
func (l *LoopNet) Register(addr string, handler http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[addr] = handler
}

// link returns (creating) the directed from → to link state. Caller holds mu.
func (l *LoopNet) link(from, to string) *linkState {
	k := from + ">" + to
	st, ok := l.links[k]
	if !ok {
		st = &linkState{}
		l.links[k] = st
	}
	return st
}

// SetLatency delays every from → to request by d before delivery (0 removes
// the delay). The delay is fixed, not jittered: deterministic schedules only.
func (l *LoopNet) SetLatency(from, to string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.link(from, to).latency = d
}

// Flake makes each from → to request fail with probability rate (like a
// connection reset before delivery), drawn from a deterministic stream seeded
// by seed. rate <= 0 removes the flake.
func (l *LoopNet) Flake(from, to string, rate float64, seed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.link(from, to)
	st.flakeRate = rate
	st.flakeRand = detrand.New(seed, 1)
	if rate <= 0 {
		st.flakeRand = nil
	}
}

// Client returns the Doer a node at address from uses to reach its peers.
func (l *LoopNet) Client(from string) Doer {
	return &loopClient{net: l, from: from}
}

type loopClient struct {
	net  *LoopNet
	from string
}

// Do routes the request to the registered handler for req.URL.Host, applying
// the from → to link's degradations, and honours context cancellation the way
// a real client would: the handler runs on its own goroutine and an expired
// context abandons it mid-flight.
func (c *loopClient) Do(req *http.Request) (*http.Response, error) {
	to := req.URL.Host
	c.net.mu.Lock()
	h, up := c.net.handlers[to]
	fwd := c.net.link(c.from, to)
	rev := c.net.link(to, c.from)
	severed := fwd.cut
	ackLost := rev.cut
	latency := fwd.latency
	stripReq, stripResp := fwd.stripSums, rev.stripSums
	flaked := fwd.flakeRand != nil && fwd.flakeRand.Float() < fwd.flakeRate
	var corruptAt int = -1
	if rev.corruptRand != nil && rev.corruptRand.Float() < rev.corruptRate {
		// Responses travel the reverse link; position drawn now (in request
		// order) keeps the corruption schedule deterministic.
		corruptAt = rev.corruptRand.IntN(1 << 20)
	}
	c.net.mu.Unlock()
	if !up {
		return nil, fmt.Errorf("loopnet: %s -> %s: connection refused (node down)", c.from, to)
	}
	if severed {
		return nil, fmt.Errorf("loopnet: %s -> %s: network partition", c.from, to)
	}
	if flaked {
		return nil, fmt.Errorf("loopnet: %s -> %s: connection reset (flaky link)", c.from, to)
	}
	if latency > 0 {
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, fmt.Errorf("loopnet: %s -> %s: %w", c.from, to, req.Context().Err())
		}
	}
	done := make(chan *http.Response, 1)
	go func() {
		rec := httptest.NewRecorder()
		delivered := req.Clone(req.Context())
		if stripReq {
			delivered.Header.Del(sumHeader)
		}
		h.ServeHTTP(rec, delivered)
		done <- rec.Result()
	}()
	select {
	case resp := <-done:
		if ackLost {
			// The handler ran — its side effects are real — but the response
			// cannot cross the severed reverse link.
			resp.Body.Close()
			return nil, fmt.Errorf("loopnet: %s -> %s: response lost (reverse partition)", to, c.from)
		}
		if corruptAt >= 0 {
			corruptResponse(resp, corruptAt)
		}
		if stripResp {
			resp.Header.Del(sumHeader)
		}
		return resp, nil
	case <-req.Context().Done():
		return nil, fmt.Errorf("loopnet: %s -> %s: %w", c.from, to, req.Context().Err())
	}
}

// corruptResponse flips one bit of the response body at position pos (mod
// body length), leaving headers — including any checksum header — intact, so
// receivers that verify will catch it and receivers that don't will read
// garbage, exactly like wire corruption past the TCP checksum.
func corruptResponse(resp *http.Response, pos int) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) == 0 {
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return
	}
	body[pos%len(body)] ^= 0x01
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
}
