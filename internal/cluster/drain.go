package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/bin"
	"repro/internal/diag"
	"repro/internal/service"
	"repro/internal/vfs"
)

// Graceful leave. Drain walks a node out of the cluster without losing or
// duplicating a single job:
//
//  1. announce: bump self to StateDraining (epoch advances), rebuild the
//     ring without us, and push the view everywhere — new keys route to
//     their next owner from this moment;
//  2. stop admitting: the inner service flips to draining (/readyz goes
//     503, new Submits get a typed ErrDraining) while workers keep running;
//  3. hand off the queued backlog: each queued job is lent — through the
//     existing steal/lend machinery, so the reclaim timer still guarantees
//     no loss — to its new ring owner, which executes it and posts the
//     completion back; jobs with no live owner just finish locally;
//  4. wait out the in-flight tail (DrainWait);
//  5. push displaced cache entries to their new owners (RebalanceOnce);
//  6. transfer journal segment ownership: the snapshot records go to the
//     first live ring member, which cross-checks them by re-execution
//     before accepting — a divergent history is refused, not inherited;
//  7. bump self to StateLeft, push the tombstone, and close.
//
// Every step is a degradation, not a cliff: a failed handoff re-enqueues
// locally, a failed rebalance costs a future recompute, a refused journal
// transfer leaves the (still durable) local file behind. The node always
// comes out closed; the cluster always comes out owning every key.

// handoffMsg is one queued job the draining origin lends to its new ring
// owner.
type handoffMsg struct {
	Origin string
	Job    service.StolenJob
}

func (m *handoffMsg) AppendBinary(b []byte) []byte {
	return m.Job.AppendBinary(bin.AppendString(b, m.Origin))
}

func (m *handoffMsg) DecodeBinary(r *bin.Reader) {
	m.Origin = r.String()
	m.Job.DecodeBinary(r)
}

// journalHandoffMsg is the leaving node's journal snapshot, checksummed like
// a shipping batch.
type journalHandoffMsg struct {
	From  string   `json:"from"`
	Lines [][]byte `json:"lines"`
	Sum   uint32   `json:"sum"`
}

// Drain gracefully removes this node from the cluster, handing its work and
// state to the surviving members, then closes it. Idempotent; single-node
// mode just drains the local queue and closes.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	if n.closed || n.draining {
		n.mu.Unlock()
		return nil
	}
	n.draining = true
	n.mu.Unlock()
	n.ctr.Drains.Add(1)

	if n.members == nil {
		n.svc.StartDrain()
		if err := n.svc.DrainWait(ctx); err != nil {
			return err
		}
		return n.Close(ctx)
	}

	n.members.bumpSelf(StateDraining)
	n.syncRing()
	n.gossipNow(ctx)
	n.svc.StartDrain()

	// One pass over the queued backlog: lend each job to its new owner.
	// Failures abort back into the local queue, where the still-running
	// workers finish them — handoff accelerates the drain, correctness never
	// depends on it.
	jobs := n.svc.StealQueued(1 << 20)
	for _, sj := range jobs {
		if ctx.Err() != nil {
			break
		}
		n.handoffJob(ctx, sj)
	}
	if err := n.svc.DrainWait(ctx); err != nil {
		return err
	}
	n.RebalanceOnce(ctx)
	handoffErr := n.handoffJournal(ctx)
	if ctx.Err() != nil {
		return ctx.Err()
	}

	n.members.bumpSelf(StateLeft)
	n.syncRing()
	n.gossipNow(ctx)
	if err := n.Close(ctx); err != nil {
		return err
	}
	return handoffErr
}

// handoffJob lends one queued job to its new ring owner; any failure aborts
// it back into the local queue.
func (n *Node) handoffJob(ctx context.Context, sj service.StolenJob) {
	key, err := n.svc.KeyFor(sj.Req)
	owner, ok := n.ownerOf(key)
	if err == nil && ok && owner != n.cfg.Self && n.members.alive(owner) {
		if _, err := handoffRoute.call(ctx, n, owner, &handoffMsg{Origin: n.cfg.Self, Job: sj}); err == nil {
			n.ctr.HandoffJobsSent.Add(1)
			return
		}
	}
	n.svc.CompleteStolen(sj.ID, nil)
}

// handoffJournal transfers journal segment ownership to the first live ring
// member. The receiver re-executes a sample of the records before accepting
// (the same divergence cross-check a joiner runs), so segment ownership never
// transfers wrongness. With no live successor, or on refusal, the local
// journal file simply stays behind — still durable, still recoverable.
func (n *Node) handoffJournal(ctx context.Context) error {
	lines, err := n.svc.JournalSnapshotRecords()
	if err != nil {
		return fmt.Errorf("journal handoff: %w", err)
	}
	if len(lines) < 2 {
		return nil // no journal, or one that holds nothing but its reservation
	}
	live := n.livePeers()
	if len(live) == 0 {
		return nil
	}
	successor := live[0]
	_, err = journalRoute.call(ctx, n, successor, &journalHandoffMsg{From: n.cfg.Self, Lines: lines, Sum: sumLines(lines)})
	switch {
	case err == nil:
		n.ctr.JournalHandoffs.Add(1)
		return nil
	case statusOf(err) == http.StatusConflict:
		return fmt.Errorf("journal handoff: %w: successor's cross-check refused the segment: %w", diag.ErrDivergence, err)
	default:
		return fmt.Errorf("journal handoff: %w", err)
	}
}

// serveHandoff accepts a queued job from a draining origin and executes it
// through the stolen-job path, posting the completion back. A node that is
// itself draining or closing refuses with 409 — the sender aborts locally
// rather than ping-ponging work between two exits.
func (n *Node) serveHandoff(_ context.Context, m *handoffMsg) (*none, error) {
	if m.Origin == "" {
		return nil, refuse(http.StatusBadRequest, "bad handoff: no origin")
	}
	if n.leaving() || errors.Is(n.svc.Ready(), service.ErrDraining) ||
		!n.spawn(func() { n.runStolen(context.Background(), m.Origin, m.Job) }) {
		return nil, refuse(http.StatusConflict, "receiver is draining")
	}
	n.ctr.HandoffJobsRecv.Add(1)
	return nil, nil
}

// serveHandoffJournal accepts journal segment ownership from a leaving
// node — after proving the segment reproduces. Accepted segments are
// persisted as a sidecar next to our own journal when one is configured.
// Lines that do not match their sum are 422, like a request that fails its
// header; a segment that does not reproduce is 409.
func (n *Node) serveHandoffJournal(ctx context.Context, m *journalHandoffMsg) (*none, error) {
	if m.From == "" {
		return nil, refuse(http.StatusBadRequest, "bad journal handoff: no sender")
	}
	if sumLines(m.Lines) != m.Sum {
		err := &diag.CorruptionError{Source: "journal handoff from " + m.From,
			Detail: "segment lines do not match their checksum"}
		n.reportPeerCorruption("", err)
		return nil, refuse(http.StatusUnprocessableEntity, "%w", err)
	}
	// Divergence cross-check: re-execute a sample before accepting ownership.
	if err := n.svc.CheckSnapshotRecords(ctx, m.Lines); err != nil {
		return nil, refuse(http.StatusConflict, "%w", err)
	}
	if path := n.cfg.Service.JournalPath; path != "" {
		// Durable before the 204: the sender gives up the segment on it.
		side := path + ".handoff-" + strings.NewReplacer(":", "_", "/", "_").Replace(m.From)
		if err := vfs.ReplaceFile(n.cfg.Service.FS, side+".tmp", side, bytes.Join(m.Lines, nil)); err != nil {
			return nil, err
		}
	}
	n.ctr.JournalHandoffsRecv.Add(1)
	return nil, nil
}

// handleDrainRequest is the operator endpoint POST /v1/cluster/drain: start a
// graceful drain and return immediately — the drain (handoff, rebalance,
// journal transfer, close) proceeds in the background, observable through
// /readyz flipping 503 and the membership view reaching StateLeft.
func (n *Node) handleDrainRequest(w http.ResponseWriter, r *http.Request) {
	// Deliberately not spawned: Drain ends in Close, which waits out the
	// node's tasks — a tracked goroutine would deadlock the shutdown it
	// performs.
	if !n.leaving() {
		go n.Drain(context.Background())
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining", "node": n.cfg.Self})
}
