package service

import (
	"context"
	"sort"
	"time"
)

// This file is the service's graceful-leave and anti-entropy surface: what the
// cluster layer needs to drain a node without losing work and to repair a
// result cache that drifted from its peers. Like the rest of clusterapi.go,
// none of it runs in single-process mode.

// StartDrain flips the service into draining: new submissions are rejected
// with a typed ErrDraining and Ready reports unready, but — unlike Close —
// the queue stays open, workers keep executing, lent jobs can still complete,
// and the journal keeps recording. The cluster layer calls this first, hands
// the queued backlog to peers, then waits with DrainWait before Close.
func (s *Service) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// DrainWait blocks until every accepted job has reached a terminal state:
// the queue is empty, no job is queued or running, and no lent (stolen) job
// is still out with a peer. It must run after StartDrain (otherwise new
// submissions can extend the wait forever) and before Close (lent-job
// completions are dropped once the service closes).
func (s *Service) DrainWait(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.drained() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (s *Service) drained() bool {
	if len(s.queue) > 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lent) > 0 {
		return false
	}
	for _, j := range s.jobs {
		if j.status == StatusQueued || j.status == StatusRunning {
			return false
		}
	}
	return true
}

// CacheKey summarizes one result-cache entry for the repair plane: the
// content-addressed key and the schedule hash the entry claims.
type CacheKey struct {
	Key          string
	ScheduleHash string
}

// CacheScan enumerates the result cache in key order — the deterministic
// input the anti-entropy digests and the rebalance diff are computed over.
// A degraded service scans empty: its cache is off.
func (s *Service) CacheScan() []CacheKey {
	if s.degraded.Load() {
		return nil
	}
	var out []CacheKey
	s.results.each(func(k string, ent *resultEntry) {
		out = append(out, CacheKey{Key: k, ScheduleHash: ent.res.ScheduleHash})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ExportResult returns the wire-form result and (when stored) originating
// request for one cache entry — the payload a rebalance push or drain handoff
// sends the key's new owner. The request rides along so the receiving owner
// installs a recheckable entry, not a bare unverifiable result.
func (s *Service) ExportResult(key string) (*Result, *Request, bool) {
	if s.degraded.Load() {
		return nil, nil, false
	}
	ent, ok := s.results.peek(key)
	if !ok {
		return nil, nil, false
	}
	var req *Request
	if ent.req != nil {
		rc := *ent.req
		req = &rc
	}
	return exportEntry(ent), req, true
}
