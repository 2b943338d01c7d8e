package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/diag"
)

// This file is the service's cluster-facing surface: everything a node
// wrapper (internal/cluster) needs to shard caches, steal work, and ship
// journals, expressed without any transport. The single-process service
// never calls any of it; with the Config hooks nil these methods are dead
// code and the service is bitwise-identical to the standalone engine.

// StolenJob is one queued job lent to a peer for remote execution: the id the
// origin node tracks it under plus the full request, which — by weak
// determinism — is everything a peer needs to produce the identical result.
type StolenJob struct {
	ID  string  `json:"id"`
	Req Request `json:"req"`
}

// StealQueued pops up to max queued jobs and lends them out for remote
// execution. Lent jobs stay visible (StatusRunning) and keep their admission
// weight; if no completion arrives within Config.StealReclaim they are
// reclaimed and re-enqueued locally, so a stealer that dies mid-job delays
// the job, never loses it. Every queued job is a client's: recovery
// cross-checks run off the queue (checkClaim).
func (s *Service) StealQueued(max int) []StolenJob {
	var out []StolenJob
	for len(out) < max {
		s.mu.Lock()
		var j *job
		if !s.closed { // under mu, so the queue is open
			select {
			case j = <-s.queue:
			default:
			}
		}
		if j == nil {
			s.mu.Unlock()
			return out
		}
		j.status = StatusRunning
		s.lent[j.id] = j
		j.reclaim = time.AfterFunc(s.cfg.StealReclaim, func() { s.reclaimLent(j.id) })
		s.ctr.JobsStolen.Add(1)
		s.mu.Unlock()
		out = append(out, StolenJob{ID: j.id, Req: j.req})
	}
	return out
}

// CompleteStolen installs a stolen job's remotely computed result through the
// normal finish path (journaling, counters, breaker feedback). Completions
// for unknown, reclaimed, or already-finished ids are dropped: determinism
// makes duplicate executions interchangeable, so a late completion is
// harmless, never a double finish. A nil result hands the job back at once —
// the stealer could not execute it: it re-enqueues locally, and the origin's
// own pipeline re-discovers any deterministic failure with its typed report.
func (s *Service) CompleteStolen(id string, res *Result) {
	if res == nil {
		s.reclaimLent(id)
		return
	}
	s.mu.Lock()
	j, ok := s.lent[id]
	if !ok || s.closed {
		s.mu.Unlock()
		return
	}
	delete(s.lent, id)
	if j.reclaim != nil {
		j.reclaim.Stop()
	}
	s.mu.Unlock()
	r := *res
	r.JobID = id
	r.Remote = true
	s.finish(j, &r, nil)
}

// reclaimLent pulls a lent job back into the local queue (reclaim timer
// expiry or an explicit abort). After shutdown the job is left to journal
// recovery instead: a crash-interrupted lend is exactly an incomplete
// journaled job, and recovery re-executes it.
func (s *Service) reclaimLent(id string) {
	s.mu.Lock()
	j, ok := s.lent[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.lent, id)
	if j.reclaim != nil {
		j.reclaim.Stop()
	}
	if s.closed {
		j.status = StatusFailed
		j.err = &diag.MisuseError{Op: "service.steal", ThreadID: -1, Kind: ErrClosed,
			Detail: "stolen job reclaimed after shutdown; journal recovery re-executes it"}
		s.mu.Unlock()
		s.inflight.Add(-j.bytes)
		close(j.done)
		return
	}
	j.status = StatusQueued
	s.ctr.StealReclaims.Add(1)
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		// The queue refilled while the job was out. Run it on its own
		// goroutine rather than block or drop — reclaim must never lose work.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() { defer s.wg.Done(); s.runJob(j) }()
	}
}

// ExecuteDetached runs one request through the cached pipeline without
// creating a job record — the execution path a work-stealer uses for jobs it
// borrowed from a peer. Panics are contained exactly like worker attempts;
// deadlines come from the request (or Config.DefaultDeadline).
func (s *Service) ExecuteDetached(ctx context.Context, req Request) (*Result, error) {
	if err := normalize(&req); err != nil {
		return nil, err
	}
	ctx, cancel, _ := s.jobContext(ctx, &req)
	defer cancel()
	return s.attempt(ctx, &job{id: "detached", req: req})
}

// ResultByKey serves a peer's fill request from the local result cache: the
// canonical core with the schedule attached, or a miss. A journal-degraded
// service answers nothing — its cache is off, and it must not export entries
// whose soundness policing just broke.
func (s *Service) ResultByKey(key string) (*Result, bool) {
	if s.degraded.Load() {
		return nil, false
	}
	ent, ok := s.results.get(key)
	if !ok {
		return nil, false
	}
	s.ctr.PeerServes.Add(1)
	return exportEntry(ent), true
}

// OfferResult installs a peer-computed entry into the local result cache —
// the backfill path by which a non-owner that had to recompute locally
// populates the shard owner, and what rebalance pushes and repair pulls
// install through. The offered schedule must be self-consistent; an offer
// that disagrees with an existing entry is a divergence: rejected and
// accounted, and the existing entry stands. req is the originating request
// when the offering node knows it (else nil): it makes the entry recheckable
// — repair can arbitrate a later divergence on this key by recompute instead
// of evicting blindly.
func (s *Service) OfferResult(key string, res *Result, req *Request) error {
	if res == nil || res.Schedule == nil {
		return &diag.MisuseError{Op: "service.OfferResult", ThreadID: -1, Kind: diag.ErrBadConfig,
			Detail: "offer without a schedule"}
	}
	if s.degraded.Load() {
		return nil // cache is off; accepting would be a silent no-op anyway
	}
	if !selfConsistent(res) {
		s.ctr.PeerFillRejects.Add(1)
		return &diag.MisuseError{Op: "service.OfferResult", ThreadID: -1, Kind: diag.ErrBadConfig,
			Detail: "offered schedule does not hash to its claimed ScheduleHash"}
	}
	offered := entryFromPeer(res, req)
	if ent, ok := s.results.get(key); ok {
		err := claimOf(ent).mismatch(fmt.Sprintf("offered result for %.12s", key), offered)
		if err != nil {
			s.diverged("", err)
		}
		return err
	}
	s.results.add(key, offered)
	s.ctr.PeerOffers.Add(1)
	return nil
}

// Ready is the readiness gate behind /readyz: nil when the service can do
// real work. Unreadiness is an error naming the first failing gate — a
// closed service, a degraded (unwritable) journal, or an open divergence
// circuit breaker. Liveness is not checked here; a live-but-unready node
// answers health probes while telling load balancers and cluster peers to
// route around it.
func (s *Service) Ready() error {
	s.mu.Lock()
	closed, draining := s.closed, s.draining
	s.mu.Unlock()
	if closed {
		return &diag.MisuseError{Op: "service.Ready", ThreadID: -1, Kind: ErrClosed, Detail: "service is closed"}
	}
	if draining {
		return &diag.MisuseError{Op: "service.Ready", ThreadID: -1, Kind: ErrDraining, Detail: "service is draining"}
	}
	if s.degraded.Load() {
		return fmt.Errorf("journal degraded: durability and result cache are off")
	}
	if state, _ := s.breaker.snapshot(); state == "open" {
		return &diag.MisuseError{Op: "service.Ready", ThreadID: -1, Kind: ErrCircuitOpen,
			Detail: "divergence circuit breaker open"}
	}
	return nil
}

// KeyFor computes the content-addressed result key req resolves to — the
// key the cluster layer shards ownership on. It normalizes and instruments
// (through the instrumentation cache) exactly like execution, so KeyFor and
// a subsequent execution of req agree on the key. Exported for cluster
// tests and smoke tooling that reason about shard placement.
func (s *Service) KeyFor(req Request) (string, error) {
	if err := normalize(&req); err != nil {
		return "", err
	}
	ie, _, err := s.instrumented(&req, new(StageLatency))
	if err != nil {
		return "", err
	}
	return ie.resultKey(simConfigOf(&req)), nil
}

// QueueDepth reports the current queue backlog — the signal health probes
// export and work-stealing peers key on.
func (s *Service) QueueDepth() int {
	return len(s.queue)
}

// JournalSnapshotRecords returns the image this node's recovery would open,
// one record line each, ending with the journal's id reservation: the
// journal-shipping resync payload a shipper sends a standby that lost (or
// never had) the stream, a joiner's bootstrap image and a drain's handoff.
// Nil when no journal is configured.
func (s *Service) JournalSnapshotRecords() ([][]byte, error) {
	if s.journal == nil {
		return nil, nil
	}
	return s.journal.snapshotRecords()
}
