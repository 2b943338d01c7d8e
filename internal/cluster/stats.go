package cluster

import "repro/internal/telemetry"

// statsOf is the node's cluster-layer telemetry, declared once (the inner
// service keeps its own; these count only cross-node traffic). A field of
// type C is a counter: at C = atomic.Int64 (Node.ctr) it is the live cell, at
// C = int64 the value Stats loaded from it. Epoch and MemberState are gauges
// read from the membership view; in Node.ctr they stay zero.
type statsOf[C any] struct {
	FillAttempts     C `json:"fill_attempts,omitempty"`
	FillHits         C `json:"fill_hits,omitempty"`
	FillMisses       C `json:"fill_misses,omitempty"`
	FillSkips        C `json:"fill_skips,omitempty"` // owner down: skipped straight to local compute
	FillHedges       C `json:"fill_hedges,omitempty"`
	FillsServed      C `json:"fills_served,omitempty"` // fills answered for peers
	OffersSent       C `json:"offers_sent,omitempty"`
	OfferFails       C `json:"offer_fails,omitempty"`
	OfferDivergences C `json:"offer_divergences,omitempty"`
	StealsDone       C `json:"steals_done,omitempty"` // jobs borrowed from peers
	CompletesSent    C `json:"completes_sent,omitempty"`
	CompleteFails    C `json:"complete_fails,omitempty"`
	ShipBatches      C `json:"ship_batches,omitempty"`
	ShipLines        C `json:"ship_lines,omitempty"`
	ShipFails        C `json:"ship_fails,omitempty"`

	// Integrity counters: peer payloads that failed their checksum (any
	// direction), ship batches rejected as corrupt, and peers newly
	// quarantined for serving corrupt bytes.
	CorruptPayloads C `json:"corrupt_payloads,omitempty"`
	ShipCorrupt     C `json:"ship_corrupt,omitempty"`
	PeerQuarantines C `json:"peer_quarantines,omitempty"`

	// Membership-plane counters. Epoch and MemberState describe the current
	// view (zero/empty in single-node mode); the rest count, since the node
	// opened: ring rebuilds (config epoch advances), gossip traffic,
	// join/drain lifecycle events, and the handoff, rebalance and
	// anti-entropy repair work churn triggers.
	Epoch               int64  `json:"epoch,omitempty"`
	MemberState         string `json:"member_state,omitempty"`
	RingRebuilds        C      `json:"ring_rebuilds,omitempty"`
	GossipRounds        C      `json:"gossip_rounds,omitempty"`
	GossipSent          C      `json:"gossip_sent,omitempty"`
	GossipFails         C      `json:"gossip_fails,omitempty"`
	GossipMerges        C      `json:"gossip_merges,omitempty"`
	Joins               C      `json:"joins,omitempty"`
	JoinsServed         C      `json:"joins_served,omitempty"`
	Drains              C      `json:"drains,omitempty"`
	HandoffJobsSent     C      `json:"handoff_jobs_sent,omitempty"`
	HandoffJobsRecv     C      `json:"handoff_jobs_recv,omitempty"`
	JournalHandoffs     C      `json:"journal_handoffs,omitempty"`
	JournalHandoffsRecv C      `json:"journal_handoffs_recv,omitempty"`
	RebalanceMoves      C      `json:"rebalance_moves,omitempty"`
	RepairRounds        C      `json:"repair_rounds,omitempty"`
	RepairPulls         C      `json:"repair_pulls,omitempty"`
	RepairFixes         C      `json:"repair_fixes,omitempty"`
	RepairDivergences   C      `json:"repair_divergences,omitempty"`
}

// Stats is a point-in-time snapshot of the node's cluster counters.
type Stats = statsOf[int64]

// Stats snapshots the cluster counters.
func (n *Node) Stats() Stats {
	var st Stats
	telemetry.Load(&n.ctr, &st)
	if n.members != nil {
		st.Epoch = n.members.epoch()
		st.MemberState = string(n.members.selfState())
	}
	return st
}
