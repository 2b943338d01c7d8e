package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
)

// Membership dissemination. Dynamic clusters spread the versioned view by
// seeded push-pull gossip: each round this node picks gossipFanout
// targets from its own partitioned deterministic RNG stream, POSTs its view,
// and merges the reply. Because View.Merge is a join-semilattice, exchange
// order cannot matter — any gossip schedule that eventually connects the
// nodes converges them to the identical view, and the seeded target choice
// makes the *specific* schedule reproducible run over run. State transitions
// (join admitted, drain started, node left) additionally push to every
// tracked peer at once, so the config epoch advances cluster-wide in one
// round-trip instead of waiting out gossip rounds.

// gossipFanout is the peers contacted per gossip round; gossipSeed seeds
// every node's peer-selection stream (partitioned per node by gossipStream),
// and every churn fingerprint in EXPERIMENTS.md is a function of it.
const (
	gossipFanout = 2
	gossipSeed   = 1
)

// gossipMsg is the body of /internal/v1/gossip (and the join handshake): the
// sender's name and full view. The reply body is the receiver's (merged)
// view, so one exchange moves information in both directions.
type gossipMsg struct {
	From string `json:"from"`
	View View   `json:"view"`
}

// GossipOnce runs one gossip round: pick fanout live targets deterministically
// and exchange views. Returns the number of successful exchanges. Synchronous —
// the background loop calls it on a ticker, and deterministic tests call it
// directly.
func (n *Node) GossipOnce(ctx context.Context) int {
	if n.members == nil || n.grand == nil {
		return 0
	}
	candidates := n.members.peerList()
	sort.Strings(candidates)
	if len(candidates) == 0 {
		return 0
	}
	fanout := min(gossipFanout, len(candidates))
	// Deterministic sampling without replacement from the node's own stream.
	n.gmu.Lock()
	picks := make([]string, 0, fanout)
	for i := 0; i < fanout; i++ {
		j := i + n.grand.IntN(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		picks = append(picks, candidates[i])
	}
	n.gmu.Unlock()

	ok := 0
	for _, peer := range picks {
		if n.exchangeView(ctx, peer) {
			ok++
		}
	}
	n.ctr.GossipRounds.Add(1)
	return ok
}

// gossipNow pushes the given view to every tracked peer immediately — the
// fast path for state transitions, where waiting out gossip rounds would
// leave the cluster routing to a node that already announced its exit.
func (n *Node) gossipNow(ctx context.Context) {
	if n.members == nil {
		return
	}
	peers := n.members.peerList()
	sort.Strings(peers)
	for _, p := range peers {
		n.exchangeView(ctx, p)
	}
}

// exchangeView runs one push-pull exchange with peer: send our view, merge
// the reply. Reports success; failures are counted and otherwise ignored —
// gossip is redundant by design, and a missed exchange only delays
// convergence. A corrupt view never advances the config epoch: call verifies
// before it decodes.
func (n *Node) exchangeView(ctx context.Context, peer string) bool {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ProbeTimeout)
	defer cancel()
	var rv View
	_, err := n.call(ctx, http.MethodPost, peer, "/internal/v1/gossip", gossipMsg{From: n.cfg.Self, View: n.members.viewClone()}, &rv)
	if err != nil {
		n.ctr.GossipFails.Add(1)
		return false
	}
	n.ctr.GossipSent.Add(1)
	if n.members.merge(rv) {
		n.ctr.GossipMerges.Add(1)
		n.syncRing()
	}
	return true
}

// handleGossip receives a peer's view, merges it, and replies with our own —
// the pull half of push-pull gossip.
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var msg gossipMsg
	if !n.accept(w, r, &msg) {
		return
	}
	if n.members.merge(msg.View) {
		n.ctr.GossipMerges.Add(1)
		n.syncRing()
	}
	reply(w, http.StatusOK, n.members.viewClone())
}

// digestReport is the body of GET /internal/v1/digest without parameters:
// the cheap convergence probe (epoch, view digest, current ring members).
type digestReport struct {
	Node   string   `json:"node"`
	Epoch  int64    `json:"epoch"`
	Digest string   `json:"digest"`
	Ring   []string `json:"ring"`
}

// handleDigest serves two queries on one route:
//
//	GET /internal/v1/digest                    → digestReport (convergence probe)
//	GET /internal/v1/digest?owner=A            → bucketed cache summary for owner A
//	GET /internal/v1/digest?owner=A&bucket=3   → the (key, hash) pairs in bucket 3
//
// The owner queries are the anti-entropy protocol's read side; see repair.go.
func (n *Node) handleDigest(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		rep := digestReport{Node: n.cfg.Self, Epoch: n.members.epoch(), Digest: n.members.digest(), Ring: n.ringNodeList()}
		reply(w, http.StatusOK, rep)
		return
	}
	if b := r.URL.Query().Get("bucket"); b != "" {
		var bucket int
		if _, err := fmt.Sscanf(b, "%d", &bucket); err != nil || bucket < 0 || bucket >= repairBuckets {
			http.Error(w, "bad bucket", http.StatusBadRequest)
			return
		}
		reply(w, http.StatusOK, n.bucketKeys(owner, bucket))
		return
	}
	reply(w, http.StatusOK, n.bucketDigests(owner))
}
