package service

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/detrand"
)

// counters aggregates service-lifetime statistics. All fields are atomics:
// workers update them concurrently, and Snapshot reads without stopping the
// world (individual counters are exact; a snapshot is only approximately a
// single instant, which is fine for monitoring).
type counters struct {
	accepted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64

	// rejects breaks the rejected total down by admission cause, and
	// queueHighWater tracks the deepest backlog ever observed — the two
	// signals workload runs assert admission behavior against without
	// scraping logs.
	rejects        rejectCounters
	queueHighWater atomic.Int64

	instrHits    atomic.Int64
	instrMisses  atomic.Int64
	resultHits   atomic.Int64
	resultMisses atomic.Int64

	selfChecks  atomic.Int64
	divergences atomic.Int64

	retries       atomic.Int64
	timeouts      atomic.Int64
	journalErrors atomic.Int64
	recovered     atomic.Int64
	recoverChecks atomic.Int64

	// Integrity counters: journal lines quarantined by the recovery scrub,
	// and corruption events detected anywhere (quarantined records, corrupt
	// peer responses, bad ship batches).
	quarantined atomic.Int64
	corruptions atomic.Int64

	// Cluster counters: peer cache fills accepted / rejected as inconsistent
	// / cross-checked, fill requests served to peers, offers installed, jobs
	// lent to work-stealers, and lent jobs reclaimed.
	peerFills       atomic.Int64
	peerFillRejects atomic.Int64
	peerChecks      atomic.Int64
	peerServes      atomic.Int64
	offers          atomic.Int64
	stolen          atomic.Int64
	stealReclaims   atomic.Int64

	parse      stageAgg
	instrument stageAgg
	simulate   stageAgg
	overhead   stageAgg

	failures failureRing
}

// rejectCounters counts rejections per admission cause (Classify class).
// Causes are a small closed set, so fixed atomics keep the hot rejection
// path allocation- and lock-free.
type rejectCounters struct {
	queueFull   atomic.Int64
	overloaded  atomic.Int64
	circuitOpen atomic.Int64
	closed      atomic.Int64
	misuse      atomic.Int64
}

// bump increments the counter for one Classify class.
func (rc *rejectCounters) bump(class string) {
	switch class {
	case "queue_full":
		rc.queueFull.Add(1)
	case "overloaded":
		rc.overloaded.Add(1)
	case "circuit_open":
		rc.circuitOpen.Add(1)
	case "closed":
		rc.closed.Add(1)
	default:
		rc.misuse.Add(1)
	}
}

// snapshot returns the nonzero per-cause counts.
func (rc *rejectCounters) snapshot() map[string]int64 {
	out := map[string]int64{}
	for _, e := range []struct {
		class string
		c     *atomic.Int64
	}{
		{"queue_full", &rc.queueFull},
		{"overloaded", &rc.overloaded},
		{"circuit_open", &rc.circuitOpen},
		{"closed", &rc.closed},
		{"misuse", &rc.misuse},
	} {
		if v := e.c.Load(); v != 0 {
			out[e.class] = v
		}
	}
	if len(out) == 0 {
		return nil
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

// stageAgg accumulates one pipeline stage's latency: exact lifetime
// count/total (atomics) plus a bounded ring of recent samples for the
// percentile snapshot.
type stageAgg struct {
	count   atomic.Int64
	totalNS atomic.Int64

	mu      sync.Mutex
	samples [latencyRingSize]int64
	next    int
	filled  bool
}

func (a *stageAgg) record(ns int64) {
	a.count.Add(1)
	a.totalNS.Add(ns)
	a.mu.Lock()
	a.samples[a.next] = ns
	a.next++
	if a.next == len(a.samples) {
		a.next, a.filled = 0, true
	}
	a.mu.Unlock()
}

func (a *stageAgg) snapshot() StageStats {
	c, t := a.count.Load(), a.totalNS.Load()
	s := StageStats{Count: c, TotalNS: t}
	if c > 0 {
		s.AvgNS = t / c
	}
	a.mu.Lock()
	n := a.next
	if a.filled {
		n = len(a.samples)
	}
	recent := make([]int64, n)
	copy(recent, a.samples[:n])
	a.mu.Unlock()
	if n > 0 {
		sort.Slice(recent, func(i, j int) bool { return recent[i] < recent[j] })
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

// failureRing retains the most recent failureRingSize failures; older ones
// are overwritten, so failure history never grows without bound.
type failureRing struct {
	mu     sync.Mutex
	buf    [failureRingSize]FailureRecord
	next   int
	filled bool
}

func (r *failureRing) record(id, kind, msg string) {
	r.mu.Lock()
	r.buf[r.next] = FailureRecord{JobID: id, Kind: kind, Error: msg}
	r.next++
	if r.next == len(r.buf) {
		r.next, r.filled = 0, true
	}
	r.mu.Unlock()
}

// snapshot returns the retained failures, oldest first.
func (r *failureRing) snapshot() []FailureRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []FailureRecord
	if r.filled {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// StatsSnapshot is the GET /v1/stats payload.
type StatsSnapshot struct {
	JobsAccepted  int64 `json:"jobs_accepted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsRejected  int64 `json:"jobs_rejected"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	Workers    int `json:"workers"`

	// QueueHighWater is the deepest queue backlog ever observed;
	// RejectByCause breaks JobsRejected down by admission cause
	// ("queue_full", "overloaded", "circuit_open", "closed", "misuse").
	QueueHighWater int              `json:"queue_high_water"`
	RejectByCause  map[string]int64 `json:"reject_by_cause,omitempty"`

	InstrCacheHits    int64 `json:"instr_cache_hits"`
	InstrCacheMisses  int64 `json:"instr_cache_misses"`
	InstrCacheSize    int   `json:"instr_cache_size"`
	ResultCacheHits   int64 `json:"result_cache_hits"`
	ResultCacheMisses int64 `json:"result_cache_misses"`
	ResultCacheSize   int   `json:"result_cache_size"`

	// SelfChecks counts sampled cache hits that were re-executed;
	// Divergences counts self-checks and recovery cross-checks whose
	// re-execution disagreed with the stored schedule. Any nonzero value
	// here means the weak-determinism contract was violated somewhere below
	// the service.
	SelfChecks  int64 `json:"self_checks"`
	Divergences int64 `json:"divergences"`

	// Robustness counters. Retries counts re-attempted transient failures;
	// Timeouts counts jobs canceled by deadline or client disconnect.
	Retries  int64 `json:"retries"`
	Timeouts int64 `json:"timeouts"`

	// InflightBytes is the admitted-but-unfinished request weight the
	// in-flight-bytes load shedder tracks against MaxInflightBytes.
	InflightBytes    int64 `json:"inflight_bytes"`
	MaxInflightBytes int64 `json:"max_inflight_bytes"`

	// Journal state: whether a journal is configured and healthy, how many
	// jobs it knows (and how many have durable finish records), write
	// errors, and jobs recovered/cross-checked after the last restart.
	JournalEnabled  bool  `json:"journal_enabled"`
	JournalDegraded bool  `json:"journal_degraded"`
	JournalJobs     int   `json:"journal_jobs,omitempty"`
	JournalFinished int   `json:"journal_finished,omitempty"`
	JournalErrors   int64 `json:"journal_errors"`
	RecoveredJobs   int64 `json:"recovered_jobs"`
	RecoveryChecks  int64 `json:"recovery_checks"`

	// Integrity counters: journal lines the recovery scrub quarantined to
	// the `.quarantine` sidecar this boot, and corruption events detected
	// anywhere (quarantined records, corrupt peer payloads, bad ship
	// batches). Corrupt bytes are recovered around, never served — these
	// counters are how operators see that it happened.
	JournalQuarantined int64 `json:"journal_quarantined,omitempty"`
	CorruptionEvents   int64 `json:"corruption_events,omitempty"`

	// Circuit-breaker state ("closed", "open", "half-open") and lifetime
	// trip count.
	BreakerState string `json:"breaker_state"`
	BreakerTrips int64  `json:"breaker_trips"`

	// Cluster counters (zero in single-process mode): results accepted from
	// peer cache fills, fills rejected as self-inconsistent, fills
	// cross-checked by local re-execution, fill requests served to peers,
	// peer offers installed, jobs lent to work-stealing peers, and lent jobs
	// reclaimed after the stealer went silent.
	PeerFills       int64 `json:"peer_fills,omitempty"`
	PeerFillRejects int64 `json:"peer_fill_rejects,omitempty"`
	PeerFillChecks  int64 `json:"peer_fill_checks,omitempty"`
	PeerServes      int64 `json:"peer_serves,omitempty"`
	PeerOffers      int64 `json:"peer_offers,omitempty"`
	JobsStolen      int64 `json:"jobs_stolen,omitempty"`
	StealReclaims   int64 `json:"steal_reclaims,omitempty"`

	// RecentFailures is the bounded failure ring, oldest first.
	RecentFailures []FailureRecord `json:"recent_failures,omitempty"`

	Stages map[string]StageStats `json:"stage_latency"`
}

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
