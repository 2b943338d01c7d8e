package cluster

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/diag"
)

// Join protocol. A newcomer opened with SeedPeers starts in StateJoining —
// known to nobody, owning nothing — and must bootstrap through a seed before
// the ring admits it:
//
//  1. it POSTs its (one-member) view to a seed's /internal/v1/join;
//  2. the seed merges the announcement and replies with its own view plus a
//     journal snapshot — the same resync payload the shipping plane sends a
//     standby that lost the stream;
//  3. the newcomer verifies the payload the hard way: frames are checked,
//     and the first few journaled completions are re-executed on the
//     newcomer's own deterministic core (service.CheckSnapshotRecords). A
//     seed whose history does not reproduce is refused — joining a divergent
//     cluster would be adopting its wrongness;
//  4. only then does the newcomer bump itself active (advancing the config
//     epoch), rebuild its ring, and push the new view to everyone it now
//     knows, so the cluster starts routing the newcomer's key ranges to it.
//
// Steps run against each seed in order until one admits; a cluster is
// joinable as long as any seed answers.

// joinReply is a seed's answer: its view and a journal snapshot for the
// divergence cross-check.
type joinReply struct {
	View     View     `json:"view"`
	Snapshot [][]byte `json:"snapshot,omitempty"`
}

// Join bootstraps this node into the cluster through its configured seeds.
// It is idempotent — an already-active node returns nil immediately — and a
// bootstrap node (no seeds) is born active, so callers can invoke Join
// unconditionally after Open.
func (n *Node) Join(ctx context.Context) error {
	if !n.dynamic {
		return &diag.MisuseError{Op: "cluster.Join", ThreadID: -1, Kind: diag.ErrBadConfig,
			Detail: "Join requires dynamic membership (Config.SeedPeers)"}
	}
	if n.members.selfState() != StateJoining {
		return nil
	}
	var lastErr error
	for _, seed := range n.cfg.SeedPeers {
		if err := n.joinVia(ctx, seed); err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: join: no seed admitted this node: %w", lastErr)
}

// joinVia runs the bootstrap handshake against one seed.
func (n *Node) joinVia(ctx context.Context, seed string) error {
	var jr joinReply
	if _, err := n.call(ctx, http.MethodPost, seed, "/internal/v1/join", gossipMsg{From: n.cfg.Self, View: n.members.viewClone()}, &jr); err != nil {
		return fmt.Errorf("join %s: %w", seed, err)
	}
	// Divergence cross-check before admission: the seed's journaled history
	// must reproduce byte-identically on our core. Refusing here is the whole
	// point — a newcomer must prove it computes what the cluster computes
	// before it starts owning the cluster's keys.
	if err := n.svc.CheckSnapshotRecords(ctx, jr.Snapshot); err != nil {
		return fmt.Errorf("join %s: bootstrap cross-check: %w", seed, err)
	}
	n.members.merge(jr.View)
	n.members.bumpSelf(StateActive)
	n.syncRing()
	n.ctr.Joins.Add(1)
	// Push admission to everyone we now know — new ranges route immediately.
	n.gossipNow(ctx)
	return nil
}

// handleJoin is the seed side of the bootstrap handshake. It merges the
// joiner's announcement and replies with the full view plus the journal
// snapshot the joiner cross-checks.
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	refusing := n.draining || n.closed
	n.mu.Unlock()
	if refusing {
		http.Error(w, "node is draining", http.StatusServiceUnavailable)
		return
	}
	var msg gossipMsg
	if !n.accept(w, r, &msg) {
		return
	}
	if msg.From == "" {
		http.Error(w, "bad join body: no sender", http.StatusBadRequest)
		return
	}
	if n.members.merge(msg.View) {
		n.syncRing()
	}
	n.ctr.JoinsServed.Add(1)
	reply(w, http.StatusOK, joinReply{View: n.members.viewClone(), Snapshot: n.svc.JournalSnapshotRecords()})
}
