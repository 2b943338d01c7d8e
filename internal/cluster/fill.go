package cluster

import (
	"context"
	"net/http"
	"time"

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

// fill is the service.Config.Fill hook.
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
	res := n.fetchHedged(ctx, time.Now().Add(n.cfg.FillTimeout), owner, key)
	if res == nil {
		n.ctr.FillMisses.Add(1)
		return nil
	}
	n.ctr.FillHits.Add(1)
	return res
}

// fetchHedged fetches key from owner on the caller's goroutine and, if that
// has not answered within HedgeAfter, a second time beside it; the first
// answer wins and cancels the other attempt. A first attempt that fails while
// the hedge is out leaves the answer to the hedge.
func (n *Node) fetchHedged(ctx context.Context, deadline time.Time, owner, key string) *service.Result {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel() // returning cuts a hedge still in flight loose
	hedged := make(chan *service.Result, 1)
	hedge := time.AfterFunc(n.cfg.HedgeAfter, func() {
		n.ctr.FillHedges.Add(1)
		res, _ := n.fetchResult(ctx, owner, key)
		if res != nil {
			cancel() // the hedge won: the caller is still inside the first attempt
		}
		hedged <- res
	})
	res, _ := n.fetchResult(ctx, owner, key) // an error is a miss
	if hedge.Stop() || res != nil {
		return res
	}
	return <-hedged // the hedge fired, and answers within ctx like any attempt
}

// fetchResult issues one GET /internal/v1/result to owner under ctx, which
// carries fill's deadline (hence exchange: call would stack a second one); a
// 404 is a clean miss. A reply that fails verification never becomes a served
// result: exchange quarantines the owner and the caller falls back to local
// recomputation — slower, never wrong.
func (n *Node) fetchResult(ctx context.Context, owner, key string) (*service.Result, error) {
	var res service.Result
	status, err := n.exchange(ctx, http.MethodGet, owner, "/internal/v1/result?key="+key, nil, &res)
	if status == http.StatusNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
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
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.sendOffer(context.Background(), owner, key, res, req)
	}()
}

// sendOffer posts one offer synchronously and classifies the outcome. The
// async offer hook, the rebalance push, and the repair backfill all funnel
// through it, so the counters mean the same thing on every path.
func (n *Node) sendOffer(ctx context.Context, owner, key string, res *service.Result, req *service.Request) error {
	status, err := n.call(ctx, http.MethodPost, owner, "/internal/v1/offer?key="+key, &offerMsg{Res: res, Req: req}, nil)
	switch {
	case err == nil:
		n.ctr.OffersSent.Add(1)
	case status == http.StatusConflict:
		// The owner's cached entry disagrees with ours: a determinism
		// divergence, counted on both sides and policed by the owner's
		// breaker.
		n.ctr.OfferDivergences.Add(1)
	default:
		n.ctr.OfferFails.Add(1)
	}
	return err
}
