package service

// What a worker does with a job: context, bounded retry, panic containment,
// then the cached pipeline — instrumentation cache, result cache, peer fill,
// simulation. Reads against DESIGN §8 (*The cold path*, *The hit path*), §9
// (deadlines and cancellation, bounded retry, the self-check and peer-fill
// rows of the cross-check table) and §10 (peer fill and offer).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/splash"
	"repro/internal/trace"
)

// worker runs the queue's jobs and, while any are left, recovery's
// cross-checks (s.checks) beside them, so both share the Config.Workers
// simulations. It exits once the queue is closed and drained and no check is
// left: Close waits for the checks, and after Kill they return at once.
func (s *Service) worker() {
	defer s.wg.Done()
	for checks := s.checks; checks != nil; {
		select {
		case c, ok := <-checks:
			if ok {
				s.checkClaim(c)
			} else {
				checks = nil
			}
		case j, ok := <-s.queue:
			if !ok {
				for c := range checks {
					s.checkClaim(c)
				}
				return
			}
			s.runJob(j)
		}
	}
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job to completion: deadline/cancellation context,
// bounded retry of transient failures, panic containment (a single bad job
// can never tear down the pool), journaling, and breaker accounting.
func (s *Service) runJob(j *job) {
	s.setStatus(j, StatusRunning)

	ctx, cancel, deadline := s.jobContext(j.clientCtx, &j.req)
	defer cancel()

	var res *Result
	var err error
	attempts := 0
	for {
		attempts++
		res, err = s.attempt(ctx, j)
		if err == nil || !retryable(err) || attempts > s.cfg.MaxRetries {
			break
		}
		s.ctr.Retries.Add(1)
		if serr := sleepCtx(ctx, s.back.delay(attempts)); serr != nil {
			err = serr // the deadline expired mid-backoff
			break
		}
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		// Deadline expiry: typed timeout, never retried.
		err = &diag.TimeoutError{Op: "service.job " + j.id, Deadline: deadline, Cause: context.DeadlineExceeded}
		s.ctr.Timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		// Client disconnect or shutdown: same typed family, no deadline.
		err = &diag.TimeoutError{Op: "service.job " + j.id, Cause: context.Canceled}
		s.ctr.Timeouts.Add(1)
	case retryable(err) && attempts > 1:
		err = &diag.RetryError{Op: "service.job " + j.id, Attempts: attempts, Last: err}
	}
	s.finish(j, res, err)
}

// jobContext merges an execution's three cancellation sources into one
// context: service shutdown (rootCtx, via Kill), the submitter's context (nil
// when asynchronous) and the request's deadline (else Config.DefaultDeadline;
// returned for the timeout report). The sim engine polls the context
// cooperatively, so cancellation lands mid-simulation, not after.
func (s *Service) jobContext(base context.Context, req *Request) (context.Context, context.CancelFunc, time.Duration) {
	if base == nil {
		base = context.Background()
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(base, deadline)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	stop := context.AfterFunc(s.rootCtx, cancel)
	return ctx, func() { stop(); cancel() }, deadline
}

// attempt is one panic-contained execution of the job's pipeline: a panic
// anywhere in it, hooks included, fails the attempt as a transient
// errContainedPanic.
func (s *Service) attempt(ctx context.Context, j *job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			if e, ok := r.(error); ok {
				err = fmt.Errorf("service: job %s: %w: %w", j.id, errContainedPanic, e)
			} else {
				err = fmt.Errorf("service: job %s: %w: %v", j.id, errContainedPanic, r)
			}
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return s.execute(ctx, j)
}

func (s *Service) setStatus(j *job, st Status) {
	s.mu.Lock()
	j.status = st
	s.mu.Unlock()
}

// found is what lookup learned about a request. A job that reaches the queue
// carries it from its submitter to its worker, so nothing is counted, and the
// self-check sampler is not drawn, twice for one job.
type found struct {
	prog     *program     // the text's program: the table's, or the one submit made
	ie       *instrEntry  // nil: not cached when last probed
	instrHit bool         // ie came from the cache rather than from a build
	key      string       // result key, once ie is known
	ent      *resultEntry // nil: not cached when last probed
	sampled  bool         // the sampler picked this hit for a self-check
}

// lookup probes the two caches for what f does not hold yet and builds
// nothing: the instrumentation entry, then — keyed from it — the result
// entry, with the sampler's draw for a hit. It runs on the submitter's
// goroutine for every job and again on the worker's for one that was queued,
// because the entry may have arrived while the job waited. Callers skip it
// while the service is journal-degraded.
func (s *Service) lookup(req *Request, f *found) {
	if f.ie == nil {
		p, ie := s.programs.get(req, true)
		if p != nil {
			f.prog = p
		}
		if ie == nil {
			return
		}
		s.ctr.InstrCacheHits.Add(1)
		f.ie, f.instrHit = ie, true
	}
	if f.ent != nil {
		return
	}
	if f.key == "" {
		f.key = f.ie.resultKey(simConfigOf(req))
	}
	if ent, ok := s.results.get(f.key); ok {
		s.ctr.ResultCacheHits.Add(1)
		f.ent, f.sampled = ent, s.check.sample()
	}
}

// cleanHit reports whether f answers req with nothing left to run: a cached
// result the sampler did not pick, whose overhead row, if req wants one, is
// already computed. Only such a job is finished by its submitter; a sampled
// self-check or a first overhead row is a simulation (or three), and
// simulations stay inside the Workers bound.
func (f *found) cleanHit(req *Request) bool {
	if f.ent == nil || f.sampled {
		return false
	}
	if !req.Artifacts.OverheadRow {
		return true
	}
	f.ent.mu.Lock()
	defer f.ent.mu.Unlock()
	return f.ent.overhead != nil
}

// execute runs the cached pipeline: instrumentation cache → result cache →
// simulate on miss (or on a sampled self-check). While the service is
// journal-degraded the result cache is bypassed entirely: every answer is
// freshly computed, trading speed for soundness the broken journal can no
// longer police.
func (s *Service) execute(ctx context.Context, j *job) (*Result, error) {
	req, f := &j.req, &j.found
	var lat StageLatency

	if f.ie == nil {
		var err error
		if f.ie, f.instrHit, err = s.instrumented(req, f.prog, &lat); err != nil {
			return nil, err
		}
	}

	cacheOn := !s.degraded.Load()
	if cacheOn {
		s.lookup(req, f)
		if f.ent != nil {
			selfChecked := false
			if f.sampled {
				s.ctr.SelfChecks.Add(1)
				if err := s.crossCheck(ctx, "self-check", j.id, req, &f.ent.out); err != nil {
					return nil, err
				}
				selfChecked = true
			}
			return s.assemble(j, f.ent, true, f.instrHit, selfChecked, &lat)
		}
		s.ctr.ResultCacheMisses.Add(1)
		// Shard miss: ask the cluster layer to fill from the key's owner
		// before paying for a local simulation. Fill failure is never an
		// error — a nil entry falls through to local recomputation. The
		// copy enters the cache cold: evicting it costs another fill, while
		// evicting an entry this node owns costs a simulation.
		if s.cfg.Fill != nil {
			ent, err := s.peerFill(ctx, f.key, j)
			if err != nil {
				return nil, err // peer-fill cross-check divergence
			}
			if ent != nil {
				s.results.addCold(f.key, ent)
				res, err := s.assemble(j, ent, false, f.instrHit, false, &lat)
				if res != nil {
					res.PeerFilled = true
				}
				return res, err
			}
		}
	}

	start := time.Now()
	ent, err := s.simulate(ctx, f.ie, req)
	lat.SimulateNS = time.Since(start).Nanoseconds()
	s.latSimulate.record(lat.SimulateNS)
	if err != nil {
		return nil, err
	}
	if cacheOn {
		s.results.add(f.key, ent)
		// Freshly computed under a cluster: offer the entry to the key's
		// shard owner so the next fill from any node hits.
		if s.cfg.Offer != nil {
			s.cfg.Offer(f.key, exportEntry(ent), &j.req)
		}
	}
	return s.assemble(j, ent, false, f.instrHit, false, &lat)
}

// peerFill asks the cluster layer for a result-cache entry computed
// elsewhere, validates its self-consistency, and — when the self-check
// sampler picks it — cross-checks it by local recompute. Returns (nil, nil)
// whenever the peer path cannot produce a trustworthy entry: the caller
// recomputes locally and the client never sees a peer failure. The only
// errors are the cross-check's: a typed divergence (a soundness failure that
// must not be served) or the job context's own expiry.
func (s *Service) peerFill(ctx context.Context, key string, j *job) (*resultEntry, error) {
	pr := s.cfg.Fill(ctx, key, &j.req)
	if pr == nil || pr.Schedule == nil {
		return nil, nil
	}
	// A corrupted transfer is treated as a miss, not an answer.
	if !pr.selfConsistent() {
		s.ctr.PeerFillRejects.Add(1)
		return nil, nil
	}
	ent := entryFromPeer(pr, &j.req)
	if s.check.sample() {
		s.ctr.PeerFillChecks.Add(1)
		if err := s.crossCheck(ctx, "peer-fill cross-check", j.id, &j.req, &ent.out); err != nil {
			return nil, err
		}
	}
	s.ctr.PeerFills.Add(1)
	return ent, nil
}

// instrumented returns the cached instrumentation for req, building it on a
// miss: parse, instrument in place (verify only, if baseline), print. Either
// way the module is verified here, once, in the form every job will run. p is
// the program a job holds for req's text, or nil: one is made on a miss. The
// table files the entry under its own program of the text when it has one.
func (s *Service) instrumented(req *Request, p *program, lat *StageLatency) (*instrEntry, bool, error) {
	if _, ie := s.programs.get(req, true); ie != nil {
		s.ctr.InstrCacheHits.Add(1)
		return ie, true, nil
	}
	s.ctr.InstrCacheMisses.Add(1)
	if p == nil {
		var err error
		if p, err = newProgram(req.Source); err != nil {
			return nil, false, err
		}
	}

	start := time.Now()
	mod, err := ir.Parse(req.Source)
	lat.ParseNS = time.Since(start).Nanoseconds()
	s.latParse.record(lat.ParseNS)
	if err != nil {
		return nil, false, fmt.Errorf("service: parse: %w", err)
	}

	ie := &instrEntry{mod: mod, decoded: interp.NewDCache(), entry: req.Entry, baseline: req.Baseline}
	if req.Baseline {
		if err := mod.Verify(s.est.Has); err != nil {
			// Worded as by interp.NewMachine, which made this check per run.
			return nil, false, fmt.Errorf("service: interp: %w", err)
		}
	} else {
		start = time.Now()
		opt := harness.PresetByKey(req.Preset)
		opt.Roots = []string{req.Entry}
		// Instrument ends by verifying the module it leaves behind.
		ie.pass, err = core.Instrument(mod, s.costs, s.est, opt)
		lat.InstrumentNS = time.Since(start).Nanoseconds()
		s.latInstrument.record(lat.InstrumentNS)
		if err != nil {
			return nil, false, fmt.Errorf("service: instrument: %w", err)
		}
	}
	ie.keyState = keyStateOf(mod)
	s.programs.add(p, req, ie)
	return ie, false, nil
}

// simulate runs one deterministic simulation from an instrumentation entry,
// always recording the schedule (it is the cache's self-check reference).
// The context is threaded into the engine as its cooperative cancellation
// hook: deadlines (read off the clock: a busy runtime can fire a context's
// timer late) and disconnects land mid-simulation. Cancellation never
// mutates engine state, so uncancelled runs are bitwise identical with or
// without a deadline configured.
func (s *Service) simulate(ctx context.Context, ie *instrEntry, req *Request) (*resultEntry, error) {
	cfg := interp.Config{
		Module:     ie.mod,
		Costs:      s.costs,
		Estimates:  s.est,
		Threads:    req.Threads,
		Entry:      req.Entry,
		JitterSeed: req.PerturbSeed,
		SkipVerify: true, // verified when the entry was built
		DCache:     ie.decoded,
	}
	if req.Race {
		cfg.Race = &interp.RaceConfig{Policy: interp.RaceFailFast}
	}
	policy := sim.PolicyFCFS
	if !req.Baseline {
		policy = sim.PolicyDet
	}
	mach, _, stats, err := interp.Run(cfg, sim.Config{
		Policy:      policy,
		RecordTrace: true,
		Cancel: func() error {
			if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
				return context.DeadlineExceeded
			}
			return ctx.Err()
		},
	})
	switch {
	case mach == nil:
		return nil, fmt.Errorf("service: %w", err)
	case err != nil:
		// Structured report (DeadlockError, RaceError, …) — the job fails,
		// the server does not.
		return nil, err
	}
	sched := trace.FromSim(stats.Trace)
	ent := &resultEntry{out: Outcome{
		ScheduleHash: fmt.Sprintf("%016x", sched.Hash()),
		ScheduleLen:  sched.Len(),
		Cycles:       stats.Makespan,
		WaitCycles:   stats.WaitCycles,
		Acquisitions: stats.Acquisitions,
		ClockUpdates: mach.ClockUpdates,
		Schedule:     sched,
	}}
	if ie.pass != nil {
		ent.out.Clockable = ie.pass.ClockableNames()
	}
	rc := *req
	ent.req = &rc
	return ent, nil
}

// assemble builds the job-facing result from a cache entry, honoring the
// requested artifacts.
func (s *Service) assemble(j *job, ent *resultEntry, cached, instrCached, selfChecked bool, lat *StageLatency) (*Result, error) {
	res := &Result{JobID: j.id, Cached: cached, InstrCached: instrCached, SelfChecked: selfChecked, Outcome: ent.out}
	if !j.req.Artifacts.Stats {
		res.Clockable = nil
	}
	if !j.req.Artifacts.Schedule {
		res.Schedule = nil
	}
	if j.req.Artifacts.OverheadRow {
		row, err := s.overheadRow(&j.req, ent, lat)
		if err != nil {
			return nil, err
		}
		res.Overhead = row
	}
	res.Stage = *lat
	return res, nil
}

// overheadRow returns the entry's Table-I-style row, computing and caching
// it on first request (three extra simulations via the harness). The harness
// instruments from the uninstrumented module, which no cache keeps: the rare
// request for a row parses the source again.
func (s *Service) overheadRow(req *Request, ent *resultEntry, lat *StageLatency) (*harness.OverheadRow, error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.overhead != nil {
		return ent.overhead, nil
	}
	start := time.Now()
	raw, err := ir.Parse(req.Source)
	if err != nil {
		return nil, fmt.Errorf("service: overhead row: %w", err)
	}
	r := harness.NewRunner()
	r.Threads = req.Threads
	b := &splash.Benchmark{Name: "job", Module: raw, Threads: req.Threads, Entry: req.Entry}
	row, err := r.OverheadRowFor(b, harness.PresetByKey(req.Preset))
	lat.OverheadNS = time.Since(start).Nanoseconds()
	s.latOverhead.record(lat.OverheadNS)
	if err != nil {
		return nil, fmt.Errorf("service: overhead row: %w", err)
	}
	ent.overhead = row
	return row, nil
}
