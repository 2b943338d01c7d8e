package cluster

import (
	"context"
	"net/http"
	"sort"

	"repro/internal/bin"
	"repro/internal/service"
)

// Work stealing: an idle node borrows queued jobs from the most-loaded live
// peer, executes them through its own (cached, policed) pipeline, and posts
// the results back to the origin, which installs them through its normal
// finish path. The protocol is loss-proof by layering, not by care:
//
//   - the origin keeps every lent job visible and re-enqueues it if no
//     completion arrives within its reclaim window, so a stealer that dies
//     delays a job, never loses it;
//   - duplicate executions are interchangeable by weak determinism, so the
//     origin just drops late or repeated completions;
//   - a stolen job the stealer cannot execute is aborted back and
//     re-discovered locally with its full typed failure report.

// stealBatch is the most jobs one steal round borrows.
const stealBatch = 2

// StealOnce runs one steal round: if this node is idle, borrow up to
// stealBatch jobs from the live peer reporting the deepest queue, and
// execute them. Synchronous — the background loop calls it on a ticker, and
// deterministic tests call it directly.
func (n *Node) StealOnce(ctx context.Context) int {
	if n.members == nil || n.svc.QueueDepth() > 0 || n.svc.Ready() != nil {
		return 0 // busy or unready nodes don't steal
	}
	// Deterministic victim choice: deepest queue, name as tie-break.
	peers := n.members.peerList()
	sort.Strings(peers)
	victim, depth := "", 0
	for _, p := range peers {
		if d := n.members.depth(p); d > depth {
			victim, depth = p, d
		}
	}
	if victim == "" {
		return 0
	}
	// The reply carries program text, so it is verified like any result: a
	// damaged reply is dropped whole (the jobs stay lent and the victim's
	// reclaim timer re-enqueues them).
	jobs, err := stealRoute.call(ctx, n, victim, &stealMsg{Max: stealBatch})
	if err != nil || len(*jobs) == 0 {
		return 0
	}
	n.ctr.StealsDone.Add(int64(len(*jobs)))
	for _, sj := range *jobs {
		n.runStolen(ctx, victim, sj)
	}
	return len(*jobs)
}

// stealMsg is the steal request: lend the caller up to Max queued jobs.
type stealMsg struct {
	Max int `json:"max"`
}

// serveSteal lends up to Max queued jobs to the calling peer.
func (n *Node) serveSteal(_ context.Context, m *stealMsg) (*stolenJobs, error) {
	jobs := stolenJobs(n.svc.StealQueued(m.Max))
	return &jobs, nil
}

// runStolen executes one borrowed job and reports the outcome to its origin.
// Execution failures become aborts: the origin re-runs the job locally and
// produces its own typed report, so a deterministic failure is diagnosed by
// the node that owns the job, with no error marshalling across the wire. A
// delivery failure is tolerable: the origin's reclaim timer re-enqueues the
// job, and our wasted execution is just that — wasted, not wrong.
func (n *Node) runStolen(ctx context.Context, origin string, sj service.StolenJob) {
	res, err := n.svc.ExecuteDetached(ctx, sj.Req)
	if err != nil {
		res = nil
	}
	if _, err := completeRoute.call(ctx, n, origin, &completeMsg{ID: sj.ID, Result: res}); err != nil {
		n.ctr.CompleteFails.Add(1)
	} else if res != nil {
		n.ctr.CompletesSent.Add(1)
	}
}

// completeMsg is a stolen job's outcome. A nil Result is an abort — the
// stealer could not execute the job and hands it back.
type completeMsg struct {
	ID     string
	Result *service.Result
}

func (m *completeMsg) AppendBinary(b []byte) []byte {
	return appendOptional(bin.AppendString(b, m.ID), m.Result)
}

func (m *completeMsg) DecodeBinary(r *bin.Reader) {
	m.ID, m.Result = r.String(), decodeOptional[service.Result](r)
}

// serveComplete installs a stolen job's remotely computed result (or abort).
// A corrupt completion is refused: the job stays lent and the reclaim timer
// re-enqueues it locally — delayed, never wrong.
func (n *Node) serveComplete(_ context.Context, m *completeMsg) (*none, error) {
	if m.ID == "" {
		return nil, refuse(http.StatusBadRequest, "bad completion: no job id")
	}
	n.svc.CompleteStolen(m.ID, m.Result)
	return nil, nil
}
