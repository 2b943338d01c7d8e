package service

// The life of a job as its submitter and its waiters see it: admission, id,
// cache probe, the job's first journal record, the queue, the published
// outcome, Wait / Do / Lookup. Reads against DESIGN §9 (admission control, the journal's
// durability contract, retention) and §8, *The hit path*.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/diag"
)

// Submit validates and admits a job, returning its id. Rejections are
// typed: validation failures are *diag.MisuseError (ErrBadConfig /
// ErrRaceBackend kinds), a full queue is ErrQueueFull, load shedding is
// ErrOverloaded, an open circuit breaker is ErrCircuitOpen, a closed service
// is ErrClosed. When a journal is configured, the job's record is durable
// (fsynced) before the id is returned — the id is all this caller holds. A job the result cache already answers is finished before Submit
// returns; everything else is queued for a worker.
func (s *Service) Submit(req Request) (string, error) {
	j, err := s.submit(nil, req)
	if err != nil {
		return "", err
	}
	return j.id, nil
}

func (s *Service) submit(clientCtx context.Context, req Request) (*job, error) {
	if err := normalize(&req); err != nil {
		s.ctr.JobsRejected.Add(1)
		s.rejects.bump(Classify(err))
		return nil, err
	}
	// Admission control, cheapest checks first; all run before any journal
	// write or pipeline work, so overload sheds at near-zero cost.
	ok, probe := s.breaker.allow()
	refuse := func(err error) (*job, error) {
		s.breaker.release(probe) // a refused probe gives no verdict
		s.ctr.JobsRejected.Add(1)
		s.rejects.bump(Classify(err))
		return nil, err
	}
	misuse := func(kind error, detail string) (*job, error) {
		return refuse(&diag.MisuseError{Op: "service.Submit", ThreadID: -1, Kind: kind, Detail: detail})
	}
	if !ok {
		return misuse(ErrCircuitOpen, "determinism divergences tripped the breaker")
	}
	bytes := int64(len(req.Source))
	if s.inflight.Load()+bytes > s.cfg.MaxInflightBytes {
		return misuse(ErrOverloaded, fmt.Sprintf("in-flight bytes %d + request %d exceed limit %d",
			s.inflight.Load(), bytes, s.cfg.MaxInflightBytes))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return misuse(ErrClosed, "")
	}
	if s.draining {
		s.mu.Unlock()
		return misuse(ErrDraining, "node is draining; submit elsewhere")
	}
	// Take the id first and journal outside the lock: the job's first record
	// must exist before any other record for the same id is appended.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return misuse(ErrQueueFull, fmt.Sprintf("queue depth %d reached", cap(s.queue)))
	}
	s.seq++
	id := jobID(s.seq)
	j := &job{id: id, req: req, status: StatusQueued, done: make(chan struct{}), clientCtx: clientCtx, bytes: bytes, probe: probe}
	s.jobs[id] = j
	// From here until the job is finished or queued this goroutine is work in
	// flight, counted like a worker (and taken, like StealQueued's off-pool
	// runs, under s.mu while !closed): Close flushes and closes the journal
	// only after the records written below, and Kill waits for them.
	s.wg.Add(1)
	defer s.wg.Done()
	s.mu.Unlock()

	// A job whose context is already dead is the worker's to fail, untouched,
	// as it always was. For any other the caches are probed here, outside
	// s.mu — they have their own locks, and held across these lookups s.mu
	// serialises every submitter behind one hash and two LRU probes (DESIGN
	// §8, *The hit path*) — and before anything is journaled, because what
	// the probe finds decides which record the job gets and who waits for it.
	hit := false
	var res *Result
	var err error
	if !s.degraded.Load() && s.rootCtx.Err() == nil && (clientCtx == nil || clientCtx.Err() == nil) {
		s.lookup(&j.req, &j.found)
		if hit = j.found.cleanHit(&j.req); hit {
			// A worker could add nothing to a clean hit: it is finished on
			// the spot, assembled first so that its one journal record can
			// carry the outcome.
			var lat StageLatency
			res, err = s.assemble(j, j.found.ent, true, j.found.instrHit, false, &lat)
			hit = err == nil // cannot fail: cleanHit saw the overhead row computed
		}
	}
	// A text the program table does not hold gets its program here, before
	// its first record names it; newProgram refuses one that is not UTF-8.
	if j.found.prog == nil {
		p, perr := newProgram(req.Source)
		if perr != nil {
			s.mu.Lock()
			delete(s.jobs, id)
			s.mu.Unlock()
			return refuse(perr)
		}
		j.found.prog = p
	}

	if s.journal != nil && !s.degraded.Load() {
		// A crash can lose a job only while somebody still waits for it: one
		// that needs a worker, or one whose caller was handed nothing but an
		// id (Submit: clientCtx == nil). Those return after the sync that
		// covers their record. A clean hit is one finish record naming its
		// claim; through Do, whose caller leaves with the result, it rides
		// the batch.
		var jerr error
		if hit {
			jerr = s.journalHit(&j.found, id, &req, res, clientCtx == nil)
		} else {
			jerr = s.journal.appendJob(journalRecord{Type: recSubmitted, ID: id}, &req, j.found.prog, true)
		}
		if errors.Is(jerr, errJournalClosed) {
			s.mu.Lock()
			delete(s.jobs, id)
			s.mu.Unlock()
			return misuse(ErrClosed, "")
		} else if jerr != nil {
			// Durability is gone but the service is not: degrade (journaling
			// off, result cache off) and keep serving. What the probe found
			// is not served either: the job goes to a worker, which computes
			// it afresh.
			s.degrade(jerr)
			hit = false
		}
	}

	// The record is in the journal before the outcome is published, so a
	// drain's handoff image cannot miss a hit admitted ahead of the drain.
	if hit {
		s.inflight.Add(bytes)
		s.ctr.JobsAccepted.Add(1)
		s.publish(j, res, err)
		return j, nil
	}
	// Everything else needs a worker, which gets what lookup found along with
	// the job (j.found) and so neither counts it nor draws the sampler again.

	s.mu.Lock()
	if s.closed {
		delete(s.jobs, id)
		s.mu.Unlock()
		s.journalFinished(j, nil, ErrClosed)
		return misuse(ErrClosed, "")
	}
	select {
	case s.queue <- j:
		s.inflight.Add(bytes)
		// High-water update under s.mu: depth can only grow at this one
		// site, so a load/compare/store pair cannot lose a larger value.
		if d := int64(len(s.queue)); d > s.queueHighWater.Load() {
			s.queueHighWater.Store(d)
		}
		s.mu.Unlock()
		s.ctr.JobsAccepted.Add(1)
		return j, nil
	default:
		// The queue filled between the pre-check and here. The submitted
		// record may already be durable, so journal a terminal rejection —
		// otherwise a restart would resurrect a job the client was told was
		// refused.
		delete(s.jobs, id)
		s.mu.Unlock()
		s.journalFinished(j, nil, ErrQueueFull)
		return misuse(ErrQueueFull, fmt.Sprintf("queue depth %d reached", cap(s.queue)))
	}
}

// journalHit journals a clean hit by the claim its entry remembers for req;
// a claim the journal digests afresh is remembered for the next hit.
func (s *Service) journalHit(f *found, id string, req *Request, res *Result, durable bool) error {
	known := f.ent.claimFor(req)
	cid, err := s.journal.appendHit(id, req, f.prog, res, known, durable)
	if err == nil && cid != known {
		f.ent.claim.Store(&memoClaim{req: *req, id: cid})
	}
	return err
}

// journalFinished appends a job's finish record, degrading on write errors.
// A journal Close has already closed is not one: the record is left to
// recovery, which re-executes the job.
func (s *Service) journalFinished(j *job, res *Result, err error) {
	if s.journal == nil || s.degraded.Load() {
		return
	}
	if jerr := s.journal.appendJob(finishRecord(j.id, res, err), nil, nil, false); jerr != nil && !errors.Is(jerr, errJournalClosed) {
		s.degrade(jerr)
	}
}

// Wait blocks until the job completes (or ctx is done) and returns its
// result or structured failure. Finished jobs are only retained up to
// Config.RetainJobs: an id evicted since is ErrUnknownJob.
func (s *Service) Wait(ctx context.Context, id string) (*Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, &diag.MisuseError{Op: "service.Wait", ThreadID: -1, Kind: ErrUnknownJob, Detail: id}
	}
	return s.wait(ctx, j)
}

func (s *Service) wait(ctx context.Context, j *job) (*Result, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.result, nil
}

// Do submits a job and waits for it — the synchronous convenience the HTTP
// ?wait=1 path, the tests, and the smoke target use. The context is attached
// to the job itself, not just the wait: a synchronous client that goes away
// (an abandoned HTTP request) cancels its job's execution instead of leaving
// it pinning a worker and a retained result forever. Do waits on the job it
// submitted, not on its id, whose record retention may already have evicted.
func (s *Service) Do(ctx context.Context, req Request) (*Result, error) {
	j, err := s.submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return s.wait(ctx, j)
}

// Lookup returns a job's current view.
func (s *Service) Lookup(id string) (*JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, &diag.MisuseError{Op: "service.Lookup", ThreadID: -1, Kind: ErrUnknownJob, Detail: id}
	}
	v := &JobView{ID: j.id, Status: j.status, Result: j.result}
	if j.err != nil {
		v.Error = j.err.Error()
		if j.errKind != "" {
			// Journal-recovered failures keep their original classification;
			// the typed report structure did not survive serialization.
			v.ErrorKind = j.errKind
		} else {
			v.ErrorKind = Classify(j.err)
		}
	}
	return v, nil
}

// finish journals a job's finish record, then publishes its outcome.
// Shutdown-canceled failures are crash artifacts, not job outcomes: they stay
// out of the journal so recovery re-executes the job (a genuine deterministic
// failure reproduces on the re-run anyway).
func (s *Service) finish(j *job, res *Result, err error) {
	if err == nil || s.rootCtx.Err() == nil {
		s.journalFinished(j, res, err)
	}
	s.publish(j, res, err)
}

// publish makes a job's outcome visible: status, counters, failure ring,
// breaker feedback, admission release, retention eviction.
func (s *Service) publish(j *job, res *Result, err error) {
	s.mu.Lock()
	if err != nil {
		j.status, j.err = StatusFailed, err
	} else {
		j.status, j.result = StatusDone, res
	}
	j.found = found{} // a retained record must not pin evicted cache entries
	s.retainLocked(j)
	s.mu.Unlock()
	s.inflight.Add(-j.bytes)
	if err != nil {
		s.ctr.JobsFailed.Add(1)
		if !errors.Is(err, diag.ErrDivergence) { // diverged already recorded it
			s.failures.push(FailureRecord{JobID: j.id, Kind: Classify(err), Error: err.Error()})
		}
	} else {
		s.ctr.JobsCompleted.Add(1)
	}
	// Breaker feedback: any clean completion is the close/decay signal. The
	// trip signal, a divergence, was fed where the cross-check failed
	// (diverged). Other failures (deadlock, race, timeout) are program- or
	// policy-level and say nothing about the service's own soundness: a
	// probe that ends in one hands its slot back.
	if err == nil {
		s.breaker.onSuccess()
	} else if !errors.Is(err, diag.ErrDivergence) {
		s.breaker.release(j.probe)
	}
	close(j.done)
}

// retainLocked puts j's id in the ring of finished jobs, evicting the oldest
// one once the ring holds Config.RetainJobs, so a long-running service's job
// table cannot grow without bound. The ring holds ids, not jobs: evicting
// then reads the victim's id from the ring, not from its long-cold job.
// Callers hold s.mu.
func (s *Service) retainLocked(j *job) {
	if victim := s.done[s.doneNext]; victim != "" {
		delete(s.jobs, victim)
	}
	s.done[s.doneNext] = j.id
	if s.doneNext++; s.doneNext == len(s.done) {
		s.doneNext = 0
	}
}
