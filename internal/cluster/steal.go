package cluster

import (
	"context"
	"net/http"
	"sort"
	"strconv"

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

// StealOnce runs one steal round: if this node is idle, borrow up to
// Config.StealBatch jobs from the live peer reporting the deepest queue, and
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
	jobs, err := n.stealFrom(ctx, victim, n.cfg.StealBatch)
	if err != nil || len(jobs) == 0 {
		return 0
	}
	n.ctr.StealsDone.Add(int64(len(jobs)))
	for _, sj := range jobs {
		n.runStolen(ctx, victim, sj)
	}
	return len(jobs)
}

// stealFrom asks victim for up to max queued jobs. The reply carries program
// text, so it is verified like any result: a damaged reply is dropped whole
// (the jobs stay lent and the victim's reclaim timer re-enqueues them).
func (n *Node) stealFrom(ctx context.Context, victim string, max int) ([]service.StolenJob, error) {
	var jobs stolenJobs
	_, err := n.call(ctx, http.MethodPost, victim, "/internal/v1/steal?max="+strconv.Itoa(max), nil, &jobs)
	return jobs, err
}

// runStolen executes one borrowed job and reports the outcome to its origin.
// Execution failures become aborts: the origin re-runs the job locally and
// produces its own typed report, so a deterministic failure is diagnosed by
// the node that owns the job, with no error marshalling across the wire.
func (n *Node) runStolen(ctx context.Context, origin string, sj service.StolenJob) {
	res, err := n.svc.ExecuteDetached(ctx, sj.Req)
	if err != nil {
		res = nil
	}
	n.postComplete(ctx, origin, sj.ID, res)
}

// postComplete sends a stolen job's result (nil = abort) back to origin. A
// delivery failure is tolerable: the origin's reclaim timer re-enqueues the
// job, and our wasted execution is just that — wasted, not wrong.
func (n *Node) postComplete(ctx context.Context, origin, id string, res *service.Result) {
	_, err := n.call(ctx, http.MethodPost, origin, "/internal/v1/complete", &completeMsg{ID: id, Result: res}, nil)
	if err != nil {
		n.ctr.CompleteFails.Add(1)
	} else if res != nil {
		n.ctr.CompletesSent.Add(1)
	}
}
