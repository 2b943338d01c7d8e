package service

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/detrand"
)

// rejectClasses is the closed set of admission causes (Classify classes)
// the rejected total is broken down by, in snapshot order. A class not listed
// here — a validation failure — counts as the last one, "misuse".
var rejectClasses = [...]string{"queue_full", "overloaded", "circuit_open", "draining", "closed", "misuse"}

// rejectCounters counts rejections per admission cause. Causes are a small
// closed set, so fixed atomics keep the hot rejection path allocation- and
// lock-free.
type rejectCounters [len(rejectClasses)]atomic.Int64

// bump increments the counter for one Classify class.
func (rc *rejectCounters) bump(class string) {
	i := slices.Index(rejectClasses[:], class)
	if i < 0 {
		i = len(rejectClasses) - 1
	}
	rc[i].Add(1)
}

// snapshot returns the nonzero per-cause counts.
func (rc *rejectCounters) snapshot() map[string]int64 {
	var out map[string]int64
	for i, class := range rejectClasses {
		if v := rc[i].Load(); v != 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[class] = v
		}
	}
	return out
}

// ringSamples bounds every sample-holding accumulator: a long-running
// detserve records millions of jobs, but its stats memory must stay
// constant, so latency percentiles come from a fixed ring of the most
// recent samples and failures from a fixed ring of the most recent reports.
// Lifetime counts/totals remain exact (they are plain counters).
const (
	latencyRingSize = 256
	failureRingSize = 64
)

// ring retains the most recent len(buf) values pushed; older ones are
// overwritten, so history never grows without bound.
type ring[T any] struct {
	mu     sync.Mutex
	buf    []T
	next   int
	filled bool
}

func newRing[T any](size int) *ring[T] {
	return &ring[T]{buf: make([]T, size)}
}

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.filled = 0, true
	}
	r.mu.Unlock()
}

// snapshot returns a copy of the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	if r.filled {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// stageAgg accumulates one pipeline stage's latency: exact lifetime
// count/total (atomics) plus a bounded ring of recent samples for the
// percentile snapshot.
type stageAgg struct {
	count   atomic.Int64
	totalNS atomic.Int64
	recent  *ring[int64]
}

func newStageAgg() *stageAgg {
	return &stageAgg{recent: newRing[int64](latencyRingSize)}
}

func (a *stageAgg) record(ns int64) {
	a.count.Add(1)
	a.totalNS.Add(ns)
	a.recent.push(ns)
}

func (a *stageAgg) snapshot() StageStats {
	c, t := a.count.Load(), a.totalNS.Load()
	s := StageStats{Count: c, TotalNS: t}
	if c > 0 {
		s.AvgNS = t / c
	}
	recent := a.recent.snapshot()
	if n := len(recent); n > 0 {
		slices.Sort(recent)
		s.P50NS = recent[n/2]
		s.P95NS = recent[(n*95)/100]
	}
	return s
}

// StageStats is one pipeline stage's aggregate latency. P50/P95 are computed
// over the bounded recent-sample ring, not the whole lifetime.
type StageStats struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	AvgNS   int64 `json:"avg_ns"`
	P50NS   int64 `json:"p50_ns,omitempty"`
	P95NS   int64 `json:"p95_ns,omitempty"`
}

// FailureRecord is one entry of the bounded recent-failures ring.
type FailureRecord struct {
	JobID string `json:"job_id"`
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// statsOf is the service's telemetry, declared once. A field of type C is a
// counter: at C = atomic.Int64 (Service.ctr) it is the live cell workers
// update concurrently, at C = int64 the value Snapshot loaded from it. Every
// other field is a gauge — its live value is held by what it describes (the
// queue, a cache, the journal, the breaker, a ring), so it has no cell and
// Snapshot sets it after the load; in Service.ctr it stays zero.
type statsOf[C any] struct {
	JobsAccepted  C `json:"jobs_accepted"`
	JobsCompleted C `json:"jobs_completed"`
	JobsFailed    C `json:"jobs_failed"`
	JobsRejected  C `json:"jobs_rejected"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	Workers    int `json:"workers"`

	// QueueHighWater is the deepest queue backlog ever observed;
	// RejectByCause breaks JobsRejected down by admission cause
	// ("queue_full", "overloaded", "circuit_open", "draining", "closed",
	// "misuse") — the two signals workload runs assert admission behavior
	// against without scraping logs.
	QueueHighWater int              `json:"queue_high_water"`
	RejectByCause  map[string]int64 `json:"reject_by_cause,omitempty"`

	InstrCacheHits    C   `json:"instr_cache_hits"`
	InstrCacheMisses  C   `json:"instr_cache_misses"`
	InstrCacheSize    int `json:"instr_cache_size"`
	ResultCacheHits   C   `json:"result_cache_hits"`
	ResultCacheMisses C   `json:"result_cache_misses"`
	ResultCacheSize   int `json:"result_cache_size"`

	// SelfChecks counts sampled cache hits that were re-executed;
	// Divergences counts self-checks and recovery cross-checks whose
	// re-execution disagreed with the stored schedule. Any nonzero value
	// here means the weak-determinism contract was violated somewhere below
	// the service.
	SelfChecks  C `json:"self_checks"`
	Divergences C `json:"divergences"`

	// Robustness counters. Retries counts re-attempted transient failures;
	// Timeouts counts jobs canceled by deadline or client disconnect.
	Retries  C `json:"retries"`
	Timeouts C `json:"timeouts"`

	// InflightBytes is the admitted-but-unfinished request weight the
	// in-flight-bytes load shedder tracks against MaxInflightBytes.
	InflightBytes    int64 `json:"inflight_bytes"`
	MaxInflightBytes int64 `json:"max_inflight_bytes"`

	// Journal state: whether a journal is configured and healthy, how many
	// jobs it knows (and how many have durable finish records), write
	// errors, and jobs recovered / distinct claims rechecked since restart.
	JournalEnabled  bool `json:"journal_enabled"`
	JournalDegraded bool `json:"journal_degraded"`
	JournalJobs     int  `json:"journal_jobs,omitempty"`
	JournalFinished int  `json:"journal_finished,omitempty"`
	JournalErrors   C    `json:"journal_errors"`
	RecoveredJobs   C    `json:"recovered_jobs"`
	RecoveryChecks  C    `json:"recovery_checks"`

	// Integrity counters: journal lines the recovery scrub quarantined to
	// the `.quarantine` sidecar this boot, and corruption events detected
	// anywhere (quarantined records, corrupt peer payloads, bad ship
	// batches). Corrupt bytes are recovered around, never served — these
	// counters are how operators see that it happened.
	JournalQuarantined C `json:"journal_quarantined,omitempty"`
	CorruptionEvents   C `json:"corruption_events,omitempty"`

	// Circuit-breaker state ("closed", "open", "half-open") and lifetime
	// trip count.
	BreakerState string `json:"breaker_state"`
	BreakerTrips int64  `json:"breaker_trips"`

	// Cluster counters (zero in single-process mode): results accepted from
	// peer cache fills, fills rejected as self-inconsistent, fills
	// cross-checked by local re-execution, fill requests served to peers,
	// peer offers installed, jobs lent to work-stealing peers, and lent jobs
	// reclaimed after the stealer went silent.
	PeerFills       C `json:"peer_fills,omitempty"`
	PeerFillRejects C `json:"peer_fill_rejects,omitempty"`
	PeerFillChecks  C `json:"peer_fill_checks,omitempty"`
	PeerServes      C `json:"peer_serves,omitempty"`
	PeerOffers      C `json:"peer_offers,omitempty"`
	JobsStolen      C `json:"jobs_stolen,omitempty"`
	StealReclaims   C `json:"steal_reclaims,omitempty"`

	// RecentFailures is the bounded failure ring, oldest first.
	RecentFailures []FailureRecord `json:"recent_failures,omitempty"`

	Stages map[string]StageStats `json:"stage_latency"`

	// JournalSyncs counts the journal's commits (one Write + Sync each) and
	// JournalRecords the job records they made durable, so syncs per job can
	// be read off a running service. They belong with the journal fields and
	// come last so that every line the endpoint already printed keeps its
	// place.
	JournalSyncs   int64 `json:"journal_syncs,omitempty"`
	JournalRecords int64 `json:"journal_records,omitempty"`
}

// StatsSnapshot is the GET /v1/stats payload.
type StatsSnapshot = statsOf[int64]

// sampler draws deterministic pseudo-random booleans for the sampled
// cross-checks (cache-hit self-checks and peer-fill checks share it); seeded
// by Config.SelfCheckSeed, the subset is reproducible per submission order.
type sampler struct {
	rate float64

	mu  sync.Mutex
	rng *detrand.Rand
}

func newSampler(rate float64, seed int64) *sampler {
	if rate <= 0 {
		return nil
	}
	return &sampler{rate: rate, rng: detrand.New(seed, 3)}
}

// sample returns true for approximately rate of calls (every call at rate 1).
func (s *sampler) sample() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float() < s.rate
}
