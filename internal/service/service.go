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
// cmd/detserve is the HTTP front end.
//
// This file is Config, Service and the service's own lifetime — Open, Close,
// Kill, Snapshot — and reads against DESIGN §7; submit.go is a job as its
// submitter sees it, execute.go what a worker does with one.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/estimates"
	"repro/internal/ir"
	"repro/internal/telemetry"
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
	// InstrCacheSize bounds the instrumentation cache (default 128 entries),
	// and with it the program texts the service holds.
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
	// JournalFsyncEvery is the batch of records nobody waits on — completion
	// records, and a Do hit's one record — that starts a commit when the disk
	// is idle (default 16); while one is in flight they gather for the next.
	// Any other first record is fsynced before Submit returns.
	JournalFsyncEvery int
	// FS is the filesystem the journal writes through (default the real
	// one). Fault-injection harnesses substitute a vfs implementation that
	// produces short writes, fsync errors, and ENOSPC.
	FS vfs.FS

	// DefaultDeadline bounds each job's execution when the request carries
	// no deadline of its own (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxRetries is the per-job retry budget for transient failures —
	// contained worker panics (default 2; negative disables retries).
	// Deterministic failures are never retried.
	MaxRetries int
	// RetryBase/RetryMax shape the exponential backoff between retries
	// (defaults 5ms/250ms).
	RetryBase time.Duration
	RetryMax  time.Duration

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

	mu       sync.Mutex
	closed   bool
	draining bool
	seq      int64
	jobs     map[string]*job
	queue    chan *job
	done     []string        // finished job ids, a ring of RetainJobs (retention eviction)
	doneNext int             // the ring's next slot: its oldest id, once full
	lent     map[string]*job // queued jobs lent to work-stealing peers

	// checks holds recovery's distinct claims still to recompute (filled and
	// closed by installRecovered, nil without a journal). The workers take
	// them beside the queue, so checks and client jobs share Config.Workers.
	checks chan *journaledClaim

	wg sync.WaitGroup

	// rootCtx cancels every in-flight job on Kill (crash simulation); Close
	// drains gracefully and leaves it alone until the drain completes.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	programs *programTable // program texts and their instrumentation entries
	results  *lruCache[string, *resultEntry]
	check    *sampler

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
		cfg:      cfg,
		jobs:     make(map[string]*job),
		done:     make([]string, cfg.RetainJobs),
		lent:     make(map[string]*job),
		queue:    make(chan *job, cfg.QueueDepth),
		programs: newProgramTable(cfg.InstrCacheSize),
		results:  newLRU[string, *resultEntry](cfg.ResultCacheSize),
		check:    newSampler(cfg.SelfCheckRate, cfg.SelfCheckSeed),
		breaker:  newBreaker(cfg.BreakerThreshold, breakerCooldown),
		back:     newBackoff(cfg.RetryBase, cfg.RetryMax, retrySeed),
		costs:    ir.DefaultCostModel(),
		est:      estimates.DefaultTable(),

		failures:      newRing[FailureRecord](failureRingSize),
		latParse:      newStageAgg(),
		latInstrument: newStageAgg(),
		latSimulate:   newStageAgg(),
		latOverhead:   newStageAgg(),
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())

	var recovered []*job
	if cfg.JournalPath != "" {
		jn, replayed, err := openJournal(cfg.FS, cfg.JournalPath, cfg.JournalFsyncEvery, cfg.ShipRecord)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		// Ids continue above everything the log reserved or used, so a tail of
		// records a crash lost cannot cause one to be issued twice.
		s.seq = jn.reserved
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
// jobs are served from the journal and retained like any other finished job,
// oldest first, up to Config.RetainJobs; incomplete ones are re-enqueued for
// execution. Returns the jobs to enqueue, submission order preserved, and
// leaves the completed ones' claims to a background check.
func (s *Service) installRecovered(replayed []*journalJob) []*job {
	var enqueue []*job
	closedCh := make(chan struct{})
	close(closedCh)
	for _, jj := range replayed {
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
			// Completed: served from the journal now, checked below.
			jj.result.JobID = jj.id
			j.status, j.result = StatusDone, jj.result
		default:
			// Failed: the report's rendering and kind survive; the typed
			// structure does not. Deterministic failures re-verify trivially
			// if resubmitted — no cross-check needed.
			j.status, j.err, j.errKind = StatusFailed, errors.New(jj.errMsg), jj.errKind
		}
		if jj.done {
			s.retainLocked(j) // Open has not published s yet: nobody to lock against
		}
	}
	// Recovery trusts determinism but verifies it, off the queue: the
	// workers recompute each distinct claim once, beside client jobs.
	claims, _ := s.journaledClaims("recovery cross-check", replayed)
	s.checks = make(chan *journaledClaim, len(claims))
	for _, c := range claims {
		s.checks <- c
	}
	close(s.checks)
	return enqueue
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
	snap.InstrCacheSize = s.programs.entries.len()
	snap.ResultCacheSize = s.results.len()
	snap.InflightBytes = s.inflight.Load()
	snap.MaxInflightBytes = s.cfg.MaxInflightBytes
	snap.JournalEnabled = s.journal != nil
	snap.JournalDegraded = s.degraded.Load()
	if s.journal != nil {
		snap.JournalJobs, snap.JournalFinished, snap.JournalSyncs, snap.JournalRecords = s.journal.snapshotLive()
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
	s.stop()
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

// Kill simulates a crash (a SIGTERM with no grace): in-flight jobs are
// canceled, the queue stops, and the journal's unflushed batch buffer is
// dropped — exactly the state a process kill leaves behind. Completion
// records inside the batch-fsync window are lost by design; recovery
// re-executes those jobs, and determinism makes the re-runs identical.
func (s *Service) Kill() {
	s.stop()
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

// stop admits nothing more and closes the queue, once.
func (s *Service) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
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
