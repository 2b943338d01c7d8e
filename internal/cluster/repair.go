package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
)

// Anti-entropy repair. Ring churn, missed offers, and plain bit rot all
// leave the same symptom: the copies of a key scattered across the cluster
// stop agreeing, or the owner is missing entries its peers hold. The repair
// loop reconciles them with a merkle-style two-round exchange, and — this is
// the part determinism buys — arbitrates every disagreement by recompute,
// not by timestamp or quorum:
//
//   - round 1: ask one peer for its bucketed digest of the entries *it*
//     holds that *we* own under the current ring (repairBuckets FNV-64a
//     summaries over sorted (key, hash) lines);
//   - round 2: for each bucket that differs from our own summary, fetch the
//     peer's (key, hash) list and reconcile key by key:
//       missing here → pull the entry (normal fill fetch, checksummed, then
//       installed through the same policed offer path peers use);
//       hash differs → re-execute locally (service.RecheckResult): if our
//       copy reproduces, the peer is the divergent one — reported and
//       quarantined via the corruption machinery; if ours does not, it has
//       already been replaced by the recompute (or evicted if unverifiable).
//
// Nothing is ever "trusted newer": a divergent entry loses to deterministic
// re-execution no matter where it lives.

// repairBuckets is the digest fan-out: keys bucket by FNV(key) % repairBuckets.
const repairBuckets = 16

// repairMax bounds the keys re-verified per repair round.
const repairMax = 128

// bucketDigest is one bucket's summary in the round-1 reply.
type bucketSummary struct {
	Digests [repairBuckets]string `json:"digests"`
	Counts  [repairBuckets]int    `json:"counts"`
}

// repairKey is one entry in the round-2 reply.
type repairKey struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
}

func bucketOf(key string) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32() % repairBuckets)
}

// ownedScan enumerates this node's cache entries owned by `owner` under this
// node's current ring, sorted by key (CacheScan's order).
func (n *Node) ownedScan(owner string) []repairKey {
	var out []repairKey
	for _, ck := range n.svc.CacheScan() {
		if o, ok := n.ownerOf(ck.Key); ok && o == owner {
			out = append(out, repairKey{Key: ck.Key, Hash: ck.ScheduleHash})
		}
	}
	return out
}

// digestMsg is repair round 1: the bucketed summary of the entries the
// receiver holds that Owner owns.
type digestMsg struct {
	Owner string `json:"owner"`
}

// serveDigest computes the round-1 summary for Owner from the local cache.
func (n *Node) serveDigest(_ context.Context, m *digestMsg) (*bucketSummary, error) {
	var lines [repairBuckets][]string
	for _, rk := range n.ownedScan(m.Owner) {
		b := bucketOf(rk.Key)
		lines[b] = append(lines[b], rk.Key+" "+rk.Hash)
	}
	var sum bucketSummary
	for b := range lines {
		sort.Strings(lines[b])
		h := fnv.New64a()
		for _, l := range lines[b] {
			io.WriteString(h, l)
			io.WriteString(h, "\n")
		}
		sum.Digests[b] = fmt.Sprintf("%016x", h.Sum64())
		sum.Counts[b] = len(lines[b])
	}
	return &sum, nil
}

// bucketMsg is repair round 2: the (key, hash) pairs of one bucket of them.
type bucketMsg struct {
	Owner  string `json:"owner"`
	Bucket int    `json:"bucket"`
}

// serveBucket computes one bucket's (key, hash) list for Owner.
func (n *Node) serveBucket(_ context.Context, m *bucketMsg) (*[]repairKey, error) {
	if m.Bucket < 0 || m.Bucket >= repairBuckets {
		return nil, refuse(http.StatusBadRequest, "bad bucket %d", m.Bucket)
	}
	keys := []repairKey{}
	for _, rk := range n.ownedScan(m.Owner) {
		if bucketOf(rk.Key) == m.Bucket {
			keys = append(keys, rk)
		}
	}
	return &keys, nil
}

// RepairOnce runs one anti-entropy round against the next ring peer in
// round-robin order, bounded by repairMax reconciled keys. Returns
// the number of entries pulled, fixed, or flagged divergent. Synchronous —
// the background loop calls it on a ticker, and deterministic tests call it
// directly.
func (n *Node) RepairOnce(ctx context.Context) int {
	if n.members == nil {
		return 0
	}
	peers := n.livePeers()
	if len(peers) == 0 {
		return 0
	}
	n.gmu.Lock()
	peer := peers[n.repairIdx%len(peers)]
	n.repairIdx++
	n.gmu.Unlock()
	n.ctr.RepairRounds.Add(1)

	theirs, err := digestRoute.call(ctx, n, peer, &digestMsg{Owner: n.cfg.Self})
	if err != nil {
		return 0
	}
	ours, _ := n.serveDigest(ctx, &digestMsg{Owner: n.cfg.Self})
	repaired, budget := 0, repairMax
	for b := 0; b < repairBuckets && budget > 0; b++ {
		if theirs.Digests[b] == ours.Digests[b] {
			continue
		}
		if theirs.Counts[b] == 0 {
			continue // they hold nothing of ours in this bucket; nothing to pull or compare
		}
		keys, err := bucketRoute.call(ctx, n, peer, &bucketMsg{Owner: n.cfg.Self, Bucket: b})
		if err != nil {
			continue
		}
		for _, rk := range *keys {
			if budget <= 0 {
				break
			}
			budget--
			fixed, err := n.reconcileKey(ctx, peer, rk)
			if err != nil && ctx.Err() != nil {
				return repaired
			}
			if fixed {
				repaired++
			}
		}
	}
	return repaired
}

// reconcileKey reconciles one (key, hash) claim from peer against the local
// cache. Reports whether anything changed (a pull, a local repair, or a peer
// divergence flagged).
func (n *Node) reconcileKey(ctx context.Context, peer string, rk repairKey) (bool, error) {
	held, _, ok := n.svc.ExportResult(rk.Key) // a peek: no recency effect, no counter
	if !ok {
		// Missing here: pull the peer's entry through the checksummed fetch
		// path and install it through the policed offer path (hash-verified;
		// a conflicting concurrent entry surfaces as a divergence).
		res, err := fillRoute.call(ctx, n, peer, &fillMsg{Key: rk.Key})
		if err != nil {
			return false, err
		}
		if err := n.svc.OfferResult(rk.Key, res, nil); err != nil {
			return false, err
		}
		n.ctr.RepairPulls.Add(1)
		return true, nil
	}
	if held.ScheduleHash == rk.Hash {
		return false, nil
	}
	// Copies disagree: recompute decides. RecheckResult returning nil means
	// our copy reproduced — the peer holds the divergent one.
	if err := n.svc.RecheckResult(ctx, rk.Key); err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		n.ctr.RepairFixes.Add(1) // our copy was wrong; recompute repaired/evicted it
		return true, nil
	}
	n.ctr.RepairDivergences.Add(1)
	n.reportPeerCorruption(peer, fmt.Errorf("cluster: repair %s: peer %s holds schedule hash %s, deterministic recompute holds %s",
		rk.Key[:12], peer, rk.Hash, held.ScheduleHash))
	return true, nil
}

// RebalanceOnce pushes the pending key-movement diff (computed by syncRing
// at each ring rebuild) to the keys' new owners: one synchronous offer per
// key, request attached so the receiving owner installs a recheckable entry.
// The local copy stays — it is still byte-correct, and keeping it costs one
// cache slot, not soundness. Returns the number of keys pushed. Moves whose
// target is gone are dropped; the repair loop re-converges them later.
func (n *Node) RebalanceOnce(ctx context.Context) int {
	n.moveMu.Lock()
	if len(n.pendingMoves) == 0 {
		n.moveMu.Unlock()
		return 0
	}
	moves := n.pendingMoves
	n.pendingMoves = make(map[string]string)
	n.moveMu.Unlock()

	keys := make([]string, 0, len(moves))
	for k := range moves {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	pushed := 0
	for _, key := range keys {
		if ctx.Err() != nil {
			break
		}
		// Ownership may have moved again since the diff: resolve at push time.
		to, ok := n.ownerOf(key)
		if !ok || to == n.cfg.Self || !n.members.alive(to) {
			continue
		}
		res, req, ok := n.svc.ExportResult(key)
		if !ok {
			continue
		}
		if n.sendOffer(ctx, to, key, res, req) == nil {
			n.ctr.RebalanceMoves.Add(1)
			pushed++
		}
	}
	return pushed
}
