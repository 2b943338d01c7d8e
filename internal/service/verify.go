package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"repro/internal/diag"
	"repro/internal/trace"
)

// The verifier. DetLock's contract — same program, same seed, same lock
// order, same schedule hash — lets the service police itself by re-execution
// (Aviram et al.: re-execution is a proof). Every site holding bytes that
// claim to be a result (DESIGN §9 tabulates them) states that proof through
// this file: recompute never looks at a stored result, so a check cannot be
// satisfied by the bytes it is checking; claim.mismatch is the one
// comparison; selfConsistent the one test that a transferred schedule is the
// one its summary describes; diverged the one place a failed check is
// counted, recorded and fed to the admission circuit breaker.

// claim is what a cross-check holds a recompute to: the schedule hash that
// stored, journaled or peer-supplied bytes assert, and the schedule itself
// when those bytes carry one.
type claim struct {
	hash     string
	schedule *trace.Schedule // nil when only the hash is known
}

func claimOf(ent *resultEntry) claim {
	return claim{hash: ent.res.ScheduleHash, schedule: ent.schedule}
}

// mismatch is nil when fresh's schedule hash — and, where the claim carries
// its schedule, every event — agrees with the claim; otherwise a typed
// divergence naming the first differing event (or just both hashes).
func (c claim) mismatch(site string, fresh *resultEntry) error {
	if c.schedule != nil {
		if d := trace.Compare(c.schedule, fresh.schedule); d.Diverged {
			return fmt.Errorf("service: %s: %w", site, trace.DivergenceError(1, d))
		}
	}
	if c.hash != fresh.res.ScheduleHash {
		return fmt.Errorf("service: %s: %w: schedule hash %s claimed, %s found",
			site, diag.ErrDivergence, c.hash, fresh.res.ScheduleHash)
	}
	return nil
}

// selfConsistent reports whether a transferred result's schedule is the one
// its summary describes: it hashes to ScheduleHash and has ScheduleLen events.
func selfConsistent(res *Result) bool {
	var raw [8]byte
	var digits [16]byte // ScheduleHash is %016x: compared without building it
	binary.BigEndian.PutUint64(raw[:], res.Schedule.Hash())
	hex.Encode(digits[:], raw[:])
	return string(digits[:]) == res.ScheduleHash && res.Schedule.Len() == res.ScheduleLen
}

// recompute executes req from scratch: the instrumentation cache (a pure
// function of the source), then a fresh panic-contained simulation. It never
// reads the result cache and never calls the Fill or Offer hooks — the
// result is this node's own deterministic core's, whatever anyone has stored.
func (s *Service) recompute(ctx context.Context, req *Request) (ent *resultEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			ent, err = nil, fmt.Errorf("service: recompute: %w: %v", errContainedPanic, r)
		}
	}()
	r := *req
	if err := normalize(&r); err != nil {
		return nil, err
	}
	ie, _, err := s.instrumented(&r, nil, new(StageLatency))
	if err != nil {
		return nil, err
	}
	return s.simulate(ctx, ie, &r)
}

// verdict recomputes req and holds the outcome to c: the fresh entry and nil
// when the claim reproduces; the context's error when the recompute was
// interrupted (no verdict either way); otherwise diag.ErrDivergence — the
// schedules differ, or c claims "completed" for a request this node cannot.
func (s *Service) verdict(ctx context.Context, site string, req *Request, c claim) (*resultEntry, error) {
	fresh, err := s.recompute(ctx, req)
	switch {
	case err == nil:
		return fresh, c.mismatch(site, fresh)
	case ctx.Err() != nil:
		return nil, ctx.Err()
	default:
		return nil, fmt.Errorf("service: %s: %w: the claimed result could not be reproduced: %v", site, diag.ErrDivergence, err)
	}
}

// crossCheck is verdict plus the bookkeeping: a divergence is accounted
// through diverged under id before it is returned.
func (s *Service) crossCheck(ctx context.Context, site, id string, req *Request, c claim) error {
	_, err := s.verdict(ctx, site, req, c)
	if errors.Is(err, diag.ErrDivergence) {
		s.diverged(id, err)
	}
	return err
}

// diverged accounts one failed cross-check: the divergences counter, the
// failure ring (under the error's Classify kind) and the breaker's trip signal.
func (s *Service) diverged(id string, err error) {
	s.ctr.Divergences.Add(1)
	s.failures.push(FailureRecord{JobID: id, Kind: Classify(err), Error: err.Error()})
	s.breaker.onDivergence()
}

// journaledClaim is one distinct (request, schedule hash) claim and its jobs.
type journaledClaim struct {
	req  *Request
	hash string
	ids  []string
}

// journaledClaims groups a journal image's completed jobs into its distinct
// claims, in first-submission order: by weak determinism one recompute of a
// request proves every record that claims its result. Jobs group by request
// (Request is comparable: the value is the key). Two hashes claimed for one
// request are a divergence found before anything is recomputed: each is
// accounted with both job ids in its message and none as its FailureRecord's
// (no one job is to blame before a recompute), and the first returned.
func (s *Service) journaledClaims(site string, jobs []*journalJob) ([]*journaledClaim, error) {
	byReq := make(map[Request][]*journaledClaim)
	var claims []*journaledClaim
	var conflict error
	for _, jj := range jobs {
		if jj.result == nil {
			continue // incomplete or failed: nothing claimed
		}
		hash, same := jj.result.ScheduleHash, byReq[jj.req]
		i := slices.IndexFunc(same, func(c *journaledClaim) bool { return c.hash == hash })
		if i < 0 {
			if len(same) > 0 {
				err := fmt.Errorf("service: %s: %w: %s claims schedule hash %s and %s claims %s for one request",
					site, diag.ErrDivergence, same[0].ids[0], same[0].hash, jj.id, hash)
				s.diverged("", err)
				conflict = cmp.Or(conflict, err)
			}
			i = len(same)
			same = append(same, &journaledClaim{req: &jj.req, hash: hash})
			byReq[jj.req] = same
			claims = append(claims, same[i])
		}
		same[i].ids = append(same[i].ids, jj.id)
	}
	return claims, conflict
}

// checkClaim is recovery's cross-check of one distinct claim, run by a
// worker in its turn (worker): recompute the claim once and, when that
// reproduces it, keep the recompute in the result cache, so the claim's next
// request is a clean hit; when it does not, fail every recovered job that
// made it and journal the verdict. After Kill it does nothing; the next
// restart redoes it.
func (s *Service) checkClaim(c *journaledClaim) {
	if s.rootCtx.Err() != nil {
		return
	}
	s.ctr.RecoveryChecks.Add(1)
	fresh, err := s.verdict(s.rootCtx, "recovery cross-check "+c.ids[0], c.req, claim{hash: c.hash})
	if err == nil {
		s.breaker.onSuccess()
		if _, ie := s.programs.get(c.req, false); ie != nil && !s.degraded.Load() {
			key := ie.resultKey(simConfigOf(c.req))
			if _, ok := s.results.peek(key); !ok {
				s.results.add(key, fresh)
			}
		}
	}
	if !errors.Is(err, diag.ErrDivergence) {
		return // reproduced, or shutdown raced the check
	}
	s.diverged(c.ids[0], err)
	s.mu.Lock()
	for _, id := range c.ids {
		if j, ok := s.jobs[id]; ok {
			j.status, j.err, j.result, j.errKind = StatusFailed, err, nil, "divergence"
		}
	}
	s.mu.Unlock()
	for _, id := range c.ids {
		s.journalFinished(&job{id: id}, nil, err)
	}
}

// RecheckResult arbitrates a suspect result-cache entry by deterministic
// recompute — the repair loop calls it when a peer's digest disagrees with
// ours on a key. nil: the stored entry reproduced, the local copy is sound
// (and the disagreeing peer is the suspect). *diag.CorruptionError: the local
// entry was wrong or unverifiable and is never served again — the recompute
// replaced it (that IS the repair) or, with nothing to recompute from, it was
// evicted; a failed recompute is accounted as a divergence. The context's
// error: the recheck was interrupted and nothing changed.
func (s *Service) RecheckResult(ctx context.Context, key string) error {
	if s.degraded.Load() {
		return nil
	}
	ent, ok := s.results.peek(key)
	if !ok {
		return nil
	}
	if ent.req == nil {
		s.results.remove(key)
		return &diag.CorruptionError{Source: "result cache",
			Detail: fmt.Sprintf("entry %.12s carries no originating request; evicted as unverifiable", key)}
	}
	fresh, err := s.verdict(ctx, "repair recheck", ent.req, claimOf(ent))
	if !errors.Is(err, diag.ErrDivergence) {
		return err // reproduced, or interrupted
	}
	outcome := "evicted"
	if fresh != nil {
		s.results.add(key, fresh)
		outcome = "replaced"
	} else {
		s.results.remove(key)
	}
	cerr := &diag.CorruptionError{Source: "result cache", Detail: fmt.Sprintf("entry %.12s %s: %v", key, outcome, err)}
	s.diverged("", cerr)
	return cerr
}

// snapshotChecks bounds the distinct claims a snapshot check recomputes.
// Small on purpose: the check is a spot audit that any divergence fails
// loudly, not a full replay.
const snapshotChecks = 2

// CheckSnapshotRecords cross-checks a peer-supplied journal snapshot (the
// shipping resync payload) — what a joining node runs on its bootstrap
// payload and a drain successor on a transferred journal segment, so state
// transfer is proved correct, not just copied. The lines go through the
// journal's own scanner: whatever recovery would quarantine or truncate is a
// *diag.CorruptionError. Conflicting claims anywhere in the jobs they replay
// to refuse the snapshot with no recompute; then the first snapshotChecks
// distinct claims are recomputed on this node's own core (never through the
// result cache, which the same peer may have filled). A mismatch is a
// divergence, accounted like every other.
func (s *Service) CheckSnapshotRecords(ctx context.Context, lines [][]byte) error {
	scan := scanJournal(bytes.Join(lines, nil))
	if len(scan.quarantined) > 0 || scan.tornBytes > 0 {
		return &diag.CorruptionError{Source: "journal snapshot",
			Detail: fmt.Sprintf("%d damaged lines, %d torn trailing bytes", len(scan.quarantined), scan.tornBytes)}
	}
	claims, err := s.journaledClaims("snapshot cross-check", scan.jobs)
	if err != nil {
		return err
	}
	for _, c := range claims[:min(len(claims), snapshotChecks)] {
		if err := s.crossCheck(ctx, "snapshot cross-check "+c.ids[0], c.ids[0], c.req, claim{hash: c.hash}); err != nil {
			return err
		}
	}
	return nil
}
