package cluster

import (
	"bytes"
	"context"
	"encoding/json"
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

// handoffMsg is the body of /internal/v1/handoff: queued jobs the draining
// origin lends to their new ring owner.
type handoffMsg struct {
	Origin string
	Jobs   stolenJobs
}

func (m *handoffMsg) AppendBinary(b []byte) []byte {
	return m.Jobs.AppendBinary(bin.AppendString(b, m.Origin))
}

func (m *handoffMsg) DecodeBinary(r *bin.Reader) {
	m.Origin = r.String()
	m.Jobs.DecodeBinary(r)
}

// journalHandoffMsg is the body of /internal/v1/handoff-journal: the leaving
// node's journal snapshot, checksummed like a shipping batch.
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
	owner := ""
	if key, err := n.svc.KeyFor(sj.Req); err == nil {
		if o, ok := n.ownerOf(key); ok {
			owner = o
		}
	}
	if owner == "" || owner == n.cfg.Self || !n.members.alive(owner) {
		n.svc.CompleteStolen(sj.ID, nil)
		return
	}
	msg := handoffMsg{Origin: n.cfg.Self, Jobs: stolenJobs{sj}}
	if _, err := n.call(ctx, http.MethodPost, owner, "/internal/v1/handoff", &msg, nil); err != nil {
		n.svc.CompleteStolen(sj.ID, nil)
		return
	}
	n.ctr.HandoffJobsSent.Add(1)
}

// handoffJournal transfers journal segment ownership to the first live ring
// member. The receiver re-executes a sample of the records before accepting
// (the same divergence cross-check a joiner runs), so segment ownership never
// transfers wrongness. With no live successor, or on refusal, the local
// journal file simply stays behind — still durable, still recoverable.
func (n *Node) handoffJournal(ctx context.Context) error {
	lines := n.svc.JournalSnapshotRecords()
	if len(lines) == 0 {
		return nil
	}
	successor := ""
	for _, name := range n.ringNodeList() {
		if name != n.cfg.Self && n.members.alive(name) {
			successor = name
			break
		}
	}
	if successor == "" {
		return nil
	}
	msg := journalHandoffMsg{From: n.cfg.Self, Lines: lines, Sum: sumLines(lines)}
	status, err := n.call(ctx, http.MethodPost, successor, "/internal/v1/handoff-journal", msg, nil)
	switch {
	case err == nil:
		n.ctr.JournalHandoffs.Add(1)
		return nil
	case status == http.StatusConflict:
		return fmt.Errorf("journal handoff: %w: successor's cross-check refused the segment: %w", diag.ErrDivergence, err)
	default:
		return fmt.Errorf("journal handoff: %w", err)
	}
}

// handleHandoff accepts queued jobs from a draining origin and executes them
// through the existing stolen-job path, posting completions back. A node
// that is itself draining refuses — the sender aborts locally rather than
// ping-ponging work between two exits.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var msg handoffMsg
	if !n.accept(w, r, &msg) {
		return
	}
	if msg.Origin == "" {
		http.Error(w, "bad handoff body: no origin", http.StatusBadRequest)
		return
	}
	n.mu.Lock()
	refusing := n.draining || n.closed
	n.mu.Unlock()
	if refusing || errors.Is(n.svc.Ready(), service.ErrDraining) {
		http.Error(w, "receiver is draining", http.StatusConflict)
		return
	}
	for _, sj := range msg.Jobs {
		n.ctr.HandoffJobsRecv.Add(1)
		sj := sj
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runStolen(context.Background(), msg.Origin, sj)
		}()
	}
	reply(w, http.StatusNoContent, nil)
}

// handleHandoffJournal accepts journal segment ownership from a leaving
// node — after proving the segment reproduces. Accepted segments are
// persisted as a sidecar next to our own journal when one is configured.
func (n *Node) handleHandoffJournal(w http.ResponseWriter, r *http.Request) {
	var msg journalHandoffMsg
	if !n.accept(w, r, &msg) {
		return
	}
	if msg.From == "" {
		http.Error(w, "bad journal handoff body: no sender", http.StatusBadRequest)
		return
	}
	if sumLines(msg.Lines) != msg.Sum {
		err := &diag.CorruptionError{Source: "journal handoff from " + msg.From,
			Detail: "segment lines do not match their checksum"}
		n.reportPeerCorruption("", err)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	// Divergence cross-check: re-execute a sample before accepting ownership.
	if err := n.svc.CheckSnapshotRecords(r.Context(), msg.Lines); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if path := n.cfg.Service.JournalPath; path != "" {
		// Durable before the 204: the sender gives up the segment on it.
		side := path + ".handoff-" + strings.NewReplacer(":", "_", "/", "_").Replace(msg.From)
		if err := vfs.ReplaceFile(n.cfg.Service.FS, side+".tmp", side, bytes.Join(msg.Lines, nil)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	n.ctr.JournalHandoffsRecv.Add(1)
	reply(w, http.StatusNoContent, nil)
}

// handleDrainRequest is the operator endpoint POST /v1/cluster/drain: start a
// graceful drain and return immediately — the drain (handoff, rebalance,
// journal transfer, close) proceeds in the background, observable through
// /readyz flipping 503 and the membership view reaching StateLeft.
func (n *Node) handleDrainRequest(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	already := n.draining || n.closed
	n.mu.Unlock()
	// Deliberately untracked by n.wg: Drain ends in Close, which waits out
	// n.wg — a tracked goroutine would deadlock the shutdown it performs.
	if !already {
		go n.Drain(context.Background())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"status": "draining", "node": n.cfg.Self})
}
