package detlock

import (
	"repro/internal/service"
)

// Service layer: a long-lived deterministic-execution service embedding the
// compiler pipeline and simulator behind a job-submission API with a worker
// pool and content-addressed caches. Because the pipeline is weakly
// deterministic, identical (program, config) submissions provably produce
// identical results — the service caches on that invariant and polices it
// with a sampled re-execution self-check. cmd/detserve is the HTTP front
// end; these re-exports let Go programs embed the service directly:
//
//	svc := detlock.NewService(detlock.ServiceConfig{SelfCheckRate: 0.1})
//	defer svc.Close(context.Background())
//	res, err := svc.Do(ctx, detlock.JobRequest{Source: src})

// Service is the deterministic-execution service (worker pool, bounded
// queue, instrumentation and result caches).
type Service = service.Service

// ServiceConfig parameterizes NewService.
type ServiceConfig = service.Config

// JobRequest describes one job: program source, instrumentation and
// simulation configuration, and the artifacts to return.
type JobRequest = service.Request

// JobArtifacts selects a job's optional result payloads.
type JobArtifacts = service.Artifacts

// JobResult is a completed job's payload.
type JobResult = service.Result

// JobView is the externally visible status/result snapshot of a job.
type JobView = service.JobView

// ServiceStats is the service's counter snapshot (cache hits, queue depth,
// per-stage latency, self-check divergences, journal/breaker/retry state).
type ServiceStats = service.StatsSnapshot

// ServiceFaults arms the service chaos harness (worker panics, journal write
// errors) for fault-tolerance testing; production configs leave it nil.
type ServiceFaults = service.FaultConfig

// JobFailureRecord is one entry of the bounded recent-failures ring in
// ServiceStats.
type JobFailureRecord = service.FailureRecord

// NewService starts a service; its worker pool begins draining immediately.
// Shut down with Service.Close. A configured journal that fails to open does
// not stop the service — it starts degraded; use OpenService to surface the
// error instead.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService starts a service like NewService but returns journal
// open/recovery errors, for callers that should refuse to run without the
// durability they asked for. With ServiceConfig.JournalPath set, accepted
// jobs are fsynced before Submit returns and survive crashes (a Do answered
// from the result cache returns its result at once; its records follow with
// the next batch): restart
// re-executes incomplete jobs (weak determinism guarantees identical
// results) and serves completed ones from the log, cross-checking them by
// background re-execution.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }

// Service-level rejection sentinels for errors.Is.
var (
	// ErrQueueFull: the bounded job queue is at capacity.
	ErrQueueFull = service.ErrQueueFull
	// ErrServiceClosed: the service is draining or closed.
	ErrServiceClosed = service.ErrClosed
	// ErrUnknownJob: no job with the requested id.
	ErrUnknownJob = service.ErrUnknownJob
	// ErrServiceOverloaded: in-flight request bytes exceed the admission
	// bound; retry after the queue drains.
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrCircuitOpen: repeated determinism divergences opened the admission
	// circuit breaker; the service is refusing work while its soundness is
	// in doubt.
	ErrCircuitOpen = service.ErrCircuitOpen
)

// ClassifyJobError maps a job error onto its report family ("deadlock",
// "race", "divergence", "misuse", "queue_full", "timeout", "overloaded",
// ...), for monitoring and HTTP status mapping.
func ClassifyJobError(err error) string { return service.Classify(err) }

// JobRetryAfter suggests, in seconds, when a rejected submission is worth
// retrying (the Retry-After header on detserve's 429/503 responses); zero
// means the error is not a backpressure rejection.
func JobRetryAfter(err error) int { return service.RetryAfter(err) }
