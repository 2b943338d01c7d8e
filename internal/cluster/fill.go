package cluster

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/bin"
	"repro/internal/diag"
	"repro/internal/service"
)

// Peer cache fill: on a local result-cache miss the service asks the node
// (via the Fill hook) whether the shard owner already has the answer. The
// whole exchange is an optimisation riding on weak determinism — every
// failure along the way (owner down, partition, miss, timeout, garbage
// bytes) returns nil, which the service reads as "compute it locally".
// A peer fill can therefore slow a request down; it can never fail one.
//
// Latency discipline: one deadline (Config.FillTimeout) bounds the exchange
// end to end, and a single hedged retry fires if the first attempt has not
// answered within Config.HedgeAfter — the standard tail-latency hedge, but
// capped at exactly one extra request so a struggling owner sees at most 2×
// load, not a retry storm. The first attempt runs on the caller's goroutine;
// only a hedge that actually fires costs a second one. Both run under one
// context carrying that one deadline, cancelled the moment either has an
// answer, so the straggler's goroutine and connection are released when the
// winner returns, not when the deadline expires.

// fill is the service.Config.Fill hook. A first attempt that fails while the
// hedge is out leaves the answer to the hedge. Each attempt is one exchange
// under fill's one deadline (call would stack a second). A miss (404), an
// error and a reply that fails verification are all nil: exchange
// quarantines an owner whose reply did not verify.
func (n *Node) fill(ctx context.Context, key string, req *service.Request) *service.Result {
	owner, ok := n.ownerOf(key)
	if !ok || owner == n.cfg.Self {
		return nil // we are the owner (or there is no ring): the miss is authoritative
	}
	if !n.members.alive(owner) {
		n.ctr.FillSkips.Add(1)
		return nil // degradation: down owner means local recomputation
	}
	n.ctr.FillAttempts.Add(1)
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FillTimeout)
	defer cancel() // returning cuts a hedge still in flight loose
	msg := &fillMsg{Key: key}
	hedged := make(chan *service.Result, 1)
	hedge := time.AfterFunc(n.cfg.HedgeAfter, func() {
		n.ctr.FillHedges.Add(1)
		res, _ := fillRoute.exchange(ctx, n, owner, msg)
		if res != nil {
			cancel() // the hedge won: the caller is still inside the first attempt
		}
		hedged <- res
	})
	res, _ := fillRoute.exchange(ctx, n, owner, msg)
	if !hedge.Stop() && res == nil {
		res = <-hedged // the hedge fired, and answers within ctx like any attempt
	}
	if res == nil {
		n.ctr.FillMisses.Add(1)
		return nil
	}
	n.ctr.FillHits.Add(1)
	return res
}

// fillMsg is the fill request: the key whose cached result the caller wants.
type fillMsg struct{ Key string }

func (m *fillMsg) AppendBinary(b []byte) []byte { return bin.AppendString(b, m.Key) }
func (m *fillMsg) DecodeBinary(r *bin.Reader)   { m.Key = r.String() }

// serveFill answers a peer's cache fill: the cached result, schedule
// included, or 404.
func (n *Node) serveFill(_ context.Context, m *fillMsg) (*service.Result, error) {
	res, ok := n.svc.ResultByKey(m.Key)
	if !ok {
		return nil, refuse(http.StatusNotFound, "miss")
	}
	n.ctr.FillsServed.Add(1)
	return res, nil
}

// offer is the service.Config.Offer hook: after computing a result this node
// does not own, push it to the shard owner so the next miss anywhere in the
// cluster fills from cache. Fire-and-forget on a bounded deadline — a failed
// offer costs the cluster one future recomputation, nothing else. The
// originating request rides along so the owner's entry stays recheckable by
// its anti-entropy repair loop.
func (n *Node) offer(key string, res *service.Result, req *service.Request) {
	owner, ok := n.ownerOf(key)
	if !ok || owner == n.cfg.Self || !n.members.alive(owner) {
		return
	}
	n.spawn(func() { n.sendOffer(context.Background(), owner, key, res, req) })
}

// sendOffer posts one offer synchronously and classifies the outcome. The
// async offer hook, the rebalance push, and the repair backfill all funnel
// through it, so the counters mean the same thing on every path.
func (n *Node) sendOffer(ctx context.Context, owner, key string, res *service.Result, req *service.Request) error {
	_, err := offerRoute.call(ctx, n, owner, &offerMsg{Key: key, Res: res, Req: req})
	switch {
	case err == nil:
		n.ctr.OffersSent.Add(1)
	case statusOf(err) == http.StatusConflict:
		// The owner's cached entry disagrees with ours: a determinism
		// divergence, counted on both sides and policed by the owner's
		// breaker.
		n.ctr.OfferDivergences.Add(1)
	default:
		n.ctr.OfferFails.Add(1)
	}
	return err
}

// offerMsg is the offer: the key, the computed result and, when the offering
// node knows it, the originating request — which makes the installed entry
// recheckable by the owner's anti-entropy repair loop.
type offerMsg struct {
	Key string
	Res *service.Result
	Req *service.Request
}

func (m *offerMsg) AppendBinary(b []byte) []byte {
	return appendOptional(appendOptional(bin.AppendString(b, m.Key), m.Res), m.Req)
}

func (m *offerMsg) DecodeBinary(r *bin.Reader) {
	m.Key, m.Res, m.Req = r.String(), decodeOptional[service.Result](r), decodeOptional[service.Request](r)
}

// serveOffer installs a peer-computed result into the local cache. A
// divergence (offer conflicting with a cached entry) is 409 — the offering
// peer logs it; both sides count it.
func (n *Node) serveOffer(_ context.Context, m *offerMsg) (*none, error) {
	if m.Key == "" || m.Res == nil {
		return nil, refuse(http.StatusBadRequest, "bad offer: no key or no result")
	}
	if err := n.svc.OfferResult(m.Key, m.Res, m.Req); err != nil {
		if errors.Is(err, diag.ErrDivergence) {
			return nil, refuse(http.StatusConflict, "%w", err)
		}
		return nil, refuse(http.StatusBadRequest, "%w", err)
	}
	return nil, nil
}
