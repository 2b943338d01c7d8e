// Package service is the deterministic-execution service layer: a long-lived
// embedding of the ir→core→interp→sim pipeline behind a job-submission API,
// with a bounded queue, a worker pool, and two content-addressed caches.
//
// Determinism is what makes the pipeline serveable. Invariant 1 of DESIGN §5
// (weak determinism) and invariant 6 (simulator determinism) together mean an
// identical (program, config) request provably produces an identical schedule
// and cycle count — so results are perfectly cacheable, the same insight that
// makes deterministic execution attractive for fault-tolerant replicated
// services (Aviram et al., "Efficient System-Enforced Deterministic
// Parallelism"). The service takes that soundness claim seriously enough to
// police it: a configurable fraction of cache hits is re-executed and
// compared against the stored schedule, and any disagreement is a typed
// *diag.DivergenceError, never a silently wrong answer.
//
// Failure containment: a job that deadlocks, races, or misuses the API
// returns its existing structured report (*diag.DeadlockError,
// *diag.RaceError, *diag.MisuseError, …) as the job's error; the server —
// and every other in-flight job — keeps running.
//
// cmd/detserve is the HTTP front end; the root facade re-exports the types
// for embedding.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/estimates"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/splash"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Classification sentinels for service-level rejections; wrapped in
// *diag.MisuseError so errors.Is and errors.As both work.
var (
	// ErrQueueFull: the bounded job queue is at capacity (backpressure —
	// retry later).
	ErrQueueFull = fmt.Errorf("job queue full")
	// ErrClosed: the service is draining or closed.
	ErrClosed = fmt.Errorf("service closed")
	// ErrDraining: the service is draining toward a graceful leave — it
	// finishes accepted work but admits nothing new. Unlike ErrClosed the
	// pipeline is still fully alive (stolen-job completions, peer serves, and
	// journal writes all proceed); clients should route to another node.
	ErrDraining = fmt.Errorf("service draining")
	// ErrUnknownJob: no job with the requested id.
	ErrUnknownJob = fmt.Errorf("unknown job id")
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue (default 256). Submissions beyond it
	// are rejected with ErrQueueFull, never blocked.
	QueueDepth int
	// InstrCacheSize bounds the instrumentation cache (default 128 entries).
	InstrCacheSize int
	// ResultCacheSize bounds the LRU result cache (default 512 entries).
	ResultCacheSize int
	// SelfCheckRate is the fraction of answers the service did not just
	// compute — result-cache hits and peer-filled results — to re-execute
	// and compare against the stored or transferred schedule (0 disables, 1
	// checks every one). A mismatch is a typed divergence that fails the job
	// and feeds the admission circuit breaker.
	SelfCheckRate float64
	// SelfCheckSeed seeds the deterministic sampling stream.
	SelfCheckSeed int64

	// JournalPath enables the durable job journal (empty disables): an
	// append-only JSONL write-ahead log that makes accepted jobs survive
	// crashes — incomplete jobs are re-executed on restart (determinism
	// guarantees identical results), completed ones are served from the log
	// and cross-checked by re-execution in the background.
	JournalPath string
	// JournalFsyncEvery batches completion-record fsyncs (default 16;
	// submitted records are always fsynced before Submit returns).
	JournalFsyncEvery int
	// FS is the filesystem the journal writes through (default the real
	// one). Fault-injection harnesses substitute a vfs implementation that
	// produces short writes, fsync errors, and ENOSPC.
	FS vfs.FS

	// DefaultDeadline bounds each job's execution when the request carries
	// no deadline of its own (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxRetries is the per-job retry budget for transient failures —
	// contained panics, injected faults (default 2; negative disables
	// retries). Deterministic failures are never retried.
	MaxRetries int
	// RetryBase/RetryMax shape the exponential backoff between retries
	// (defaults 5ms/250ms); RetrySeed seeds the deterministic jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
	RetrySeed int64

	// MaxInflightBytes bounds the summed request-source size of admitted,
	// unfinished jobs (default 256 MiB); submissions beyond it are shed with
	// ErrOverloaded.
	MaxInflightBytes int64
	// BreakerThreshold is the divergence count that opens the admission
	// circuit breaker (default 3); it stays open for breakerCooldown before
	// half-opening a probe.
	BreakerThreshold int

	// RetainJobs bounds the finished-job records kept for Lookup/Wait
	// (default 4096); beyond it the oldest finished jobs are evicted.
	RetainJobs int

	// Faults arms the service chaos harness (nil in production).
	Faults *FaultConfig

	// Cluster hooks — the transport-agnostic extension surface that
	// internal/cluster plugs into. All of them are optional: with every hook
	// nil (single-process mode) the service is byte-for-byte the standalone
	// engine, no cluster code on any path.

	// Fill, when set, is consulted on a result-cache miss before local
	// simulation: the cluster layer fetches the entry from the key's shard
	// owner. A nil return means the peer path is unavailable — the service
	// falls back to local recomputation, never an error. A returned Result
	// must carry its Schedule (the cache entry's self-check reference).
	Fill func(ctx context.Context, key string, req *Request) *Result
	// Offer, when set, receives every freshly computed result (schedule
	// attached) plus its originating request, so the cluster layer can
	// backfill the key's shard owner with an entry the owner can later
	// re-verify by deterministic recompute. It must enqueue and return
	// quickly; it runs on the worker's goroutine.
	Offer func(key string, res *Result, req *Request)
	// ShipRecord, when set, receives every journal record line as it is
	// appended — the journal-shipping feed. It is called under the journal
	// lock: implementations must buffer and return, never block or call
	// back into the service.
	ShipRecord func(line []byte)
	// StealReclaim bounds how long a stolen (lent-to-a-peer) job may stay
	// out before the service reclaims it and re-enqueues it locally
	// (default 5s). Determinism makes the duplicate execution harmless: a
	// late remote completion for a reclaimed job is simply dropped.
	StealReclaim time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.InstrCacheSize <= 0 {
		c.InstrCacheSize = 128
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 512
	}
	if c.JournalFsyncEvery <= 0 {
		c.JournalFsyncEvery = 16
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.MaxInflightBytes <= 0 {
		c.MaxInflightBytes = 256 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.StealReclaim <= 0 {
		c.StealReclaim = 5 * time.Second
	}
	return c
}

// Service is the deterministic-execution service.
type Service struct {
	cfg Config

	mu        sync.Mutex
	closed    bool
	draining  bool
	seq       int64
	jobs      map[string]*job
	queue     chan *job
	doneOrder []string        // finished job ids, oldest first (retention eviction)
	lent      map[string]*job // queued jobs lent to work-stealing peers

	wg sync.WaitGroup

	// rootCtx cancels every in-flight job on Kill (crash simulation); Close
	// drains gracefully and leaves it alone until the drain completes.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	instr   *lruCache[instrKey, *instrEntry]
	results *lruCache[string, *resultEntry]
	check   *sampler

	// Telemetry. ctr holds every counter cell (statsOf, stats.go); the rest
	// is the live state behind the snapshot's gauges that nothing else holds.
	ctr            statsOf[atomic.Int64]
	rejects        rejectCounters
	queueHighWater atomic.Int64
	failures       *ring[FailureRecord]
	latParse       *stageAgg
	latInstrument  *stageAgg
	latSimulate    *stageAgg
	latOverhead    *stageAgg

	journal  *journal // nil when no journal is configured
	degraded atomic.Bool
	breaker  *breaker
	back     *backoff
	inflight atomic.Int64
	chaos    *chaos

	// Shared read-only tables for the pipeline.
	costs *ir.CostModel
	est   *estimates.Table
}

// New starts a service: the worker pool begins draining the queue
// immediately. Close shuts it down. A journal that fails to open does not
// stop the service — it starts degraded (no durability, result cache off)
// with the failure counted; use Open when the caller wants that error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		cfg.JournalPath = ""
		s, _ = Open(cfg)
		s.degrade(err)
	}
	return s
}

// Open starts a service like New but surfaces journal open/recovery errors
// instead of degrading, for front ends (cmd/detserve) that should refuse to
// start without the durability they were asked for.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		lent:    make(map[string]*job),
		queue:   make(chan *job, cfg.QueueDepth),
		instr:   newLRU[instrKey, *instrEntry](cfg.InstrCacheSize),
		results: newLRU[string, *resultEntry](cfg.ResultCacheSize),
		check:   newSampler(cfg.SelfCheckRate, cfg.SelfCheckSeed),
		breaker: newBreaker(cfg.BreakerThreshold, breakerCooldown),
		back:    newBackoff(cfg.RetryBase, cfg.RetryMax, cfg.RetrySeed),
		chaos:   newChaos(cfg.Faults),
		costs:   ir.DefaultCostModel(),
		est:     estimates.DefaultTable(),

		failures:      newRing[FailureRecord](failureRingSize),
		latParse:      newStageAgg(),
		latInstrument: newStageAgg(),
		latSimulate:   newStageAgg(),
		latOverhead:   newStageAgg(),
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())

	var recovered []*job
	if cfg.JournalPath != "" {
		jn, replayed, err := openJournal(cfg.FS, cfg.JournalPath, cfg.JournalFsyncEvery, journalCompactEvery, s.chaos, cfg.ShipRecord)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		if jn.quarantined > 0 {
			s.ctr.JournalQuarantined.Add(int64(jn.quarantined))
			s.ctr.CorruptionEvents.Add(int64(jn.quarantined))
		}
		recovered = s.installRecovered(replayed)
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Recovered work is enqueued after the pool starts so a recovery load
	// larger than the queue simply drains through it (blocking sends here,
	// workers receiving concurrently).
	for _, j := range recovered {
		s.queue <- j
	}
	return s, nil
}

// installRecovered folds the replayed journal into the job table: finished
// jobs are served from the journal (successful ones additionally scheduled
// for the background determinism cross-check), incomplete ones re-enqueued
// for execution. Returns the jobs to enqueue, submission order preserved.
func (s *Service) installRecovered(replayed []*journalJob) []*job {
	var enqueue []*job
	closedCh := make(chan struct{})
	close(closedCh)
	for _, jj := range replayed {
		if n, ok := numericID(jj.id); ok && n > s.seq {
			s.seq = n
		}
		j := &job{id: jj.id, req: jj.req, done: closedCh}
		s.jobs[jj.id] = j
		s.ctr.RecoveredJobs.Add(1)
		switch {
		case !jj.done:
			// Incomplete: the crash interrupted it; re-execute. Determinism
			// makes the re-run provably identical to the lost one.
			j.status, j.done, j.bytes = StatusQueued, make(chan struct{}), int64(len(jj.req.Source))
			s.inflight.Add(j.bytes)
			enqueue = append(enqueue, j)
		case jj.result != nil:
			// Completed: serve the journaled result immediately, and queue a
			// cross-check that re-executes the request and compares schedule
			// hashes — recovery trusts determinism but verifies it.
			res := *jj.result
			res.JobID = jj.id
			j.status, j.result = StatusDone, &res
			enqueue = append(enqueue, &job{
				id:     jj.id,
				req:    jj.req,
				status: StatusQueued,
				done:   make(chan struct{}),
				verify: &claim{hash: res.ScheduleHash},
			})
		default:
			// Failed: the report's rendering and kind survive; the typed
			// structure does not. Deterministic failures re-verify trivially
			// if resubmitted — no cross-check needed.
			j.status, j.err, j.errKind = StatusFailed, errors.New(jj.errMsg), jj.errKind
		}
	}
	return enqueue
}

// numericID parses the N of "job-N" ids so a recovered service continues
// its id sequence past everything in the journal.
func numericID(id string) (int64, bool) {
	const prefix = "job-"
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0, false
	}
	var n int64
	for _, c := range id[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// degrade marks the service journal-degraded: journaling stops, and the
// result cache is disabled so every response is freshly computed — the
// service stays up and correct, trading cache speed for not serving answers
// whose durability story just broke.
func (s *Service) degrade(err error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.failures.push(FailureRecord{Kind: "journal", Error: fmt.Sprintf("journal degraded: %v", err)})
	}
	s.ctr.JournalErrors.Add(1)
}

// Submit validates and enqueues a job, returning its id. Rejections are
// typed: validation failures are *diag.MisuseError (ErrBadConfig /
// ErrRaceBackend kinds), a full queue is ErrQueueFull, load shedding is
// ErrOverloaded, an open circuit breaker is ErrCircuitOpen, a closed service
// is ErrClosed. When a journal is configured, the submitted record is
// durable (fsynced) before the id is returned.
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
	misuse := func(kind error, detail string) (*job, error) {
		s.ctr.JobsRejected.Add(1)
		s.rejects.bump(Classify(kind))
		return nil, &diag.MisuseError{Op: "service.Submit", ThreadID: -1, Kind: kind, Detail: detail}
	}
	// Admission control, cheapest checks first; all run before any journal
	// write or pipeline work, so overload sheds at near-zero cost.
	if !s.breaker.allow() {
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
	// Reserve the id first and journal outside the lock: the submitted
	// record must be durable before the client sees the id, and must exist
	// before any completion record for the same id can be appended.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return misuse(ErrQueueFull, fmt.Sprintf("queue depth %d reached", cap(s.queue)))
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	j := &job{id: id, req: req, status: StatusQueued, done: make(chan struct{}), clientCtx: clientCtx, bytes: bytes}
	s.jobs[id] = j
	s.mu.Unlock()

	if s.journal != nil && !s.degraded.Load() {
		if err := s.journal.appendSubmitted(id, &req); err != nil {
			// Durability is gone but the service is not: degrade (journaling
			// off, result cache off) and keep serving.
			s.degrade(err)
		}
	}

	s.mu.Lock()
	if s.closed {
		delete(s.jobs, id)
		s.mu.Unlock()
		s.journalFinished(j, nil, ErrClosed.Error(), "closed")
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
		s.journalFinished(j, nil, ErrQueueFull.Error(), "queue_full")
		return misuse(ErrQueueFull, fmt.Sprintf("queue depth %d reached", cap(s.queue)))
	}
}

// journalFinished appends a job's finish record, degrading on write errors.
func (s *Service) journalFinished(j *job, res *Result, errMsg, errKind string) {
	if s.journal == nil || s.degraded.Load() {
		return
	}
	if err := s.journal.appendFinished(j.id, res, errMsg, errKind); err != nil {
		s.degrade(err)
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

// Snapshot returns the service counters: every cell of s.ctr loaded into the
// field it is declared as, then the gauges, each read from what holds it.
func (s *Service) Snapshot() StatsSnapshot {
	var snap StatsSnapshot
	telemetry.Load(&s.ctr, &snap)
	snap.QueueDepth = len(s.queue)
	snap.QueueCap = cap(s.queue)
	snap.Workers = s.cfg.Workers
	snap.QueueHighWater = int(s.queueHighWater.Load())
	snap.RejectByCause = s.rejects.snapshot()
	snap.InstrCacheSize = s.instr.len()
	snap.ResultCacheSize = s.results.len()
	snap.InflightBytes = s.inflight.Load()
	snap.MaxInflightBytes = s.cfg.MaxInflightBytes
	snap.JournalEnabled = s.journal != nil
	snap.JournalDegraded = s.degraded.Load()
	if s.journal != nil {
		snap.JournalJobs, snap.JournalFinished = s.journal.snapshotLive()
	}
	snap.BreakerState, snap.BreakerTrips = s.breaker.snapshot()
	snap.RecentFailures = s.failures.snapshot()
	snap.Stages = map[string]StageStats{
		"parse":      s.latParse.snapshot(),
		"instrument": s.latInstrument.snapshot(),
		"simulate":   s.latSimulate.snapshot(),
		"overhead":   s.latOverhead.snapshot(),
	}
	return snap
}

// Close stops accepting jobs, drains the queue and in-flight work, and
// returns when every worker has exited (or ctx expires; workers then finish
// in the background). On a clean drain the journal is flushed and closed, so
// a graceful shutdown leaves every accepted job's finish record durable.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.rootCancel()
		if s.journal != nil {
			if err := s.journal.close(); err != nil && !s.degraded.Load() {
				return err
			}
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill simulates a crash (the chaos harness's SIGTERM): in-flight jobs are
// canceled, the queue stops, and the journal's unflushed batch buffer is
// dropped — exactly the state a process kill leaves behind. Completion
// records inside the batch-fsync window are lost by design; recovery
// re-executes those jobs, and determinism makes the re-runs identical.
func (s *Service) Kill() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	// The journal dies before in-flight jobs are canceled: nothing a dying
	// worker writes after this point can become durable, exactly like a real
	// crash. Canceled jobs stay incomplete in the log and recover by
	// re-execution.
	if s.journal != nil {
		s.journal.kill()
	}
	s.rootCancel()
	s.wg.Wait()
}

// ReportCorruption records an externally detected integrity failure — the
// cluster layer calls it when a peer response or shipped batch fails its
// checksum. Corruption feeds the same admission circuit breaker divergences
// do: both mean bytes the system would have served cannot be trusted, and
// enough of them in a row should stop admission rather than keep racing the
// fault.
func (s *Service) ReportCorruption(err error) {
	s.ctr.CorruptionEvents.Add(1)
	if err != nil {
		s.failures.push(FailureRecord{Kind: "corruption", Error: err.Error()})
	}
	s.breaker.onDivergence()
}

// Classify maps a job error to its report family for monitoring and HTTP
// responses.
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, diag.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, diag.ErrRace):
		return "race"
	case errors.Is(err, diag.ErrDivergence):
		return "divergence"
	case errors.Is(err, diag.ErrCorruption):
		return "corruption"
	case errors.Is(err, diag.ErrRetriesExhausted):
		return "retries_exhausted"
	case errors.Is(err, diag.ErrDeadline):
		return "timeout"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, ErrUnknownJob):
		return "unknown_job"
	case errors.Is(err, diag.ErrBadConfig), errors.Is(err, diag.ErrRaceBackend), errors.Is(err, diag.ErrDetectorMidRun):
		return "misuse"
	default:
		return "error"
	}
}

// --- worker pipeline --------------------------------------------------------

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job to completion: deadline/cancellation context,
// bounded retry of transient failures, panic containment (a single bad job
// can never tear down the pool), journaling, and breaker accounting.
func (s *Service) runJob(j *job) {
	if j.verify != nil {
		s.runVerify(j)
		return
	}
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

// jobContext merges an execution's three cancellation sources: service
// shutdown (rootCtx, via Kill), the submitter's context (nil when
// asynchronous) and the request's deadline (else Config.DefaultDeadline;
// returned for the timeout report). The sim engine polls the context
// cooperatively, so cancellation lands mid-simulation, not after.
func (s *Service) jobContext(base context.Context, req *Request) (context.Context, context.CancelFunc, time.Duration) {
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	stop := context.AfterFunc(s.rootCtx, cancel)
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	cancelDL := context.CancelFunc(func() {})
	if deadline > 0 {
		ctx, cancelDL = context.WithTimeout(ctx, deadline)
	}
	return ctx, func() { cancelDL(); stop(); cancel() }, deadline
}

// attempt is one panic-contained execution of the job's pipeline; the chaos
// harness's injected worker panics land here, tagged transient.
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
	if s.chaos.workerPanic() {
		panic(fmt.Errorf("%w: worker panic", diag.ErrInjected))
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return s.execute(ctx, j)
}

// finish publishes a job's outcome: status, counters, journal finish record,
// failure ring, breaker feedback, admission release, retention eviction.
func (s *Service) finish(j *job, res *Result, err error) {
	kind := Classify(err)
	s.mu.Lock()
	if err != nil {
		j.status, j.err = StatusFailed, err
	} else {
		j.status, j.result = StatusDone, res
	}
	s.retainLocked(j)
	s.mu.Unlock()
	s.inflight.Add(-j.bytes)
	if err != nil {
		s.ctr.JobsFailed.Add(1)
		if !errors.Is(err, diag.ErrDivergence) { // diverged already recorded it
			s.failures.push(FailureRecord{JobID: j.id, Kind: kind, Error: err.Error()})
		}
		// Shutdown-canceled failures are crash artifacts, not job outcomes:
		// they stay out of the journal so recovery re-executes the job (a
		// genuine deterministic failure reproduces on the re-run anyway).
		if s.rootCtx.Err() == nil {
			s.journalFinished(j, nil, err.Error(), kind)
		}
	} else {
		s.ctr.JobsCompleted.Add(1)
		s.journalFinished(j, res, "", "")
	}
	// Breaker feedback: any clean completion is the close/decay signal. The
	// trip signal, a divergence, was fed where the cross-check failed
	// (diverged). Other failures (deadlock, race, timeout) are program- or
	// policy-level and say nothing about the service's own soundness.
	if err == nil {
		s.breaker.onSuccess()
	}
	close(j.done)
}

// retainLocked appends j to the finished order and evicts the oldest
// finished jobs beyond Config.RetainJobs, so a long-running service's job
// table cannot grow without bound. Callers hold s.mu.
func (s *Service) retainLocked(j *job) {
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.RetainJobs {
		victim := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, victim)
	}
}

func (s *Service) setStatus(j *job, st Status) {
	s.mu.Lock()
	j.status = st
	s.mu.Unlock()
}

// execute runs the cached pipeline: instrumentation cache → result cache →
// simulate on miss (or on a sampled self-check). While the service is
// journal-degraded the result cache is bypassed entirely: every answer is
// freshly computed, trading speed for soundness the broken journal can no
// longer police.
func (s *Service) execute(ctx context.Context, j *job) (*Result, error) {
	req := &j.req
	var lat StageLatency

	ie, instrHit, err := s.instrumented(req, &lat)
	if err != nil {
		return nil, err
	}

	cacheOn := !s.degraded.Load()
	rk := resultKey(ie.keyState, req)
	if cacheOn {
		if ent, ok := s.results.get(rk); ok {
			s.ctr.ResultCacheHits.Add(1)
			selfChecked := false
			if s.check.sample() {
				s.ctr.SelfChecks.Add(1)
				if err := s.crossCheck(ctx, "self-check", j.id, req, claimOf(ent)); err != nil {
					return nil, err
				}
				selfChecked = true
			}
			return s.assemble(j, ie, ent, true, instrHit, selfChecked, &lat)
		}
		s.ctr.ResultCacheMisses.Add(1)
		// Shard miss: ask the cluster layer to fill from the key's owner
		// before paying for a local simulation. Fill failure is never an
		// error — a nil entry falls through to local recomputation.
		if s.cfg.Fill != nil {
			ent, err := s.peerFill(ctx, rk, j)
			if err != nil {
				return nil, err // peer-fill cross-check divergence
			}
			if ent != nil {
				s.results.add(rk, ent)
				res, err := s.assemble(j, ie, ent, false, instrHit, false, &lat)
				if res != nil {
					res.PeerFilled = true
				}
				return res, err
			}
		}
	}

	start := time.Now()
	ent, err := s.simulate(ctx, ie, req)
	lat.SimulateNS = time.Since(start).Nanoseconds()
	s.latSimulate.record(lat.SimulateNS)
	if err != nil {
		return nil, err
	}
	if cacheOn {
		s.results.add(rk, ent)
		// Freshly computed under a cluster: offer the entry to the key's
		// shard owner so the next fill from any node hits.
		if s.cfg.Offer != nil {
			s.cfg.Offer(rk, exportEntry(ent), &j.req)
		}
	}
	return s.assemble(j, ie, ent, false, instrHit, false, &lat)
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
	if !selfConsistent(pr) {
		s.ctr.PeerFillRejects.Add(1)
		return nil, nil
	}
	ent := entryFromPeer(pr, &j.req)
	if s.check.sample() {
		s.ctr.PeerFillChecks.Add(1)
		if err := s.crossCheck(ctx, "peer-fill cross-check", j.id, &j.req, claimOf(ent)); err != nil {
			return nil, err
		}
	}
	s.ctr.PeerFills.Add(1)
	return ent, nil
}

// instrumented returns the cached instrumentation for req, building it on a
// miss: parse, instrument in place (verify only, if baseline), print. Either
// way the module is verified here, once, in the form every job will run.
func (s *Service) instrumented(req *Request, lat *StageLatency) (*instrEntry, bool, error) {
	ik := instrKeyOf(req)
	if ie, ok := s.instr.get(ik); ok {
		s.ctr.InstrCacheHits.Add(1)
		return ie, true, nil
	}
	s.ctr.InstrCacheMisses.Add(1)

	start := time.Now()
	mod, err := ir.Parse(req.Source)
	lat.ParseNS = time.Since(start).Nanoseconds()
	s.latParse.record(lat.ParseNS)
	if err != nil {
		return nil, false, fmt.Errorf("service: parse: %w", err)
	}

	ie := &instrEntry{mod: mod, decoded: interp.NewDCache()}
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
	ie.keyState = moduleKeyState(mod.String())
	s.instr.add(ik, ie)
	return ie, false, nil
}

// simulate runs one deterministic simulation from an instrumentation entry,
// always recording the schedule (it is the cache's self-check reference).
// The context is threaded into the engine as its cooperative cancellation
// hook: deadlines and disconnects land mid-simulation. Cancellation never
// mutates engine state, so uncancelled runs are bitwise identical with or
// without a deadline configured.
func (s *Service) simulate(ctx context.Context, ie *instrEntry, req *Request) (*resultEntry, error) {
	mod := ie.mod
	cfg := interp.Config{
		Module:     mod,
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
	mach, threads, err := interp.NewMachine(cfg)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	policy := sim.PolicyFCFS
	if !req.Baseline {
		policy = sim.PolicyDet
	}
	eng := sim.New(sim.Config{
		Policy:      policy,
		NumLocks:    mod.NumLocks,
		NumBarriers: mod.NumBars,
		RecordTrace: true,
		Observer:    mach.Observer(),
		Cancel:      ctx.Err,
	}, interp.Programs(threads))
	stats, err := eng.Run()
	if err != nil {
		// Structured report (DeadlockError, RaceError, …) — the job fails,
		// the server does not.
		return nil, err
	}
	sched := trace.FromSim(stats.Trace)
	ent := &resultEntry{
		res: Result{
			ScheduleHash: fmt.Sprintf("%016x", sched.Hash()),
			ScheduleLen:  sched.Len(),
			Cycles:       stats.Makespan,
			WaitCycles:   stats.WaitCycles,
			Acquisitions: stats.Acquisitions,
			ClockUpdates: mach.ClockUpdates,
		},
		schedule: sched,
	}
	if ie.pass != nil {
		ent.res.Clockable = ie.pass.ClockableNames()
	}
	rc := *req
	ent.req = &rc
	return ent, nil
}

// assemble builds the job-facing result from a cache entry, honoring the
// requested artifacts.
func (s *Service) assemble(j *job, ie *instrEntry, ent *resultEntry, cached, instrCached, selfChecked bool, lat *StageLatency) (*Result, error) {
	res := ent.res // copy
	res.JobID = j.id
	res.Cached = cached
	res.InstrCached = instrCached
	res.SelfChecked = selfChecked
	if !j.req.Artifacts.Stats {
		res.Clockable = nil
	}
	if j.req.Artifacts.Schedule {
		res.Schedule = ent.schedule
	}
	if j.req.Artifacts.OverheadRow {
		row, err := s.overheadRow(&j.req, ent, lat)
		if err != nil {
			return nil, err
		}
		res.Overhead = row
	}
	res.Stage = *lat
	return &res, nil
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
