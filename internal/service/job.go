package service

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/diag"
	"repro/internal/harness"
	"repro/internal/trace"
)

// Request describes one deterministic-execution job: the program (textual
// IR), the instrumentation options, the simulation configuration, and the
// artifacts the client wants back. The JSON tags are the wire format of
// cmd/detserve's POST /v1/jobs body.
type Request struct {
	// Source is the program in the textual IR format (ir.Parse).
	Source string `json:"source"`
	// Entry is the SPMD entry function (default "main").
	Entry string `json:"entry,omitempty"`
	// Threads is the simulated core count (default 4; negative is a typed
	// configuration error).
	Threads int `json:"threads,omitempty"`
	// Preset selects the instrumentation optimization preset
	// (none|O1|O2|O3|O4|all; default all). Ignored for Baseline jobs.
	Preset string `json:"preset,omitempty"`
	// Baseline runs the uninstrumented program under plain FCFS locks — the
	// paper's "Original Exec Time" configuration — instead of the
	// deterministic pipeline. The simulator is still a deterministic
	// discrete-event engine, so even baseline results are cacheable; their
	// schedules are just not invariant under PerturbSeed.
	Baseline bool `json:"baseline,omitempty"`
	// PerturbSeed perturbs physical instruction timing (§ PerturbSeed on the
	// facade SimConfig). Deterministic schedules are invariant under it (not
	// yet the deque idiom's at 4 and 8 threads: ROADMAP.md item 21), and it
	// remains part of the result-cache key so perturbation studies hit
	// distinct entries.
	PerturbSeed int64 `json:"perturb_seed,omitempty"`
	// Race enables the fail-fast deterministic race detector. Requires the
	// deterministic pipeline (Baseline=false); the combination is a typed
	// *diag.MisuseError (ErrRaceBackend), mirroring the facade contract.
	Race bool `json:"race,omitempty"`
	// DeadlineMS is the job's execution budget in milliseconds (0 uses
	// Config.DefaultDeadline; negative is a typed configuration error). A
	// job exceeding it is cooperatively canceled inside the simulator and
	// fails with a typed *diag.TimeoutError; concurrently running jobs are
	// unaffected — their results stay bitwise identical.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Artifacts selects optional result payloads.
	Artifacts Artifacts `json:"artifacts"`
}

// Artifacts selects which optional payloads a job's result carries. The
// schedule hash and core run counters are always included; these toggle the
// heavier ones.
type Artifacts struct {
	// Schedule includes the full synchronization schedule (every lock
	// acquisition) in the result.
	Schedule bool `json:"schedule,omitempty"`
	// Stats includes instrumentation-pass statistics (clockable functions).
	Stats bool `json:"stats,omitempty"`
	// OverheadRow computes a Table-I-style overhead row for the job's
	// program and preset (three extra simulations on first request; cached
	// alongside the result afterwards).
	OverheadRow bool `json:"overhead_row,omitempty"`
}

// StageLatency records per-stage wall-clock nanoseconds for one job. Cache
// hits skip stages, which is visible here as zeros.
type StageLatency struct {
	ParseNS      int64 `json:"parse_ns"`
	InstrumentNS int64 `json:"instrument_ns"`
	SimulateNS   int64 `json:"simulate_ns"`
	OverheadNS   int64 `json:"overhead_ns,omitempty"`
}

// Result is a completed job's payload.
type Result struct {
	JobID string `json:"job_id"`
	// Cached reports a result-cache hit (no simulation ran, unless the
	// determinism self-check sampled this hit). InstrCached reports an
	// instrumentation-cache hit (parse + instrument skipped).
	Cached      bool `json:"cached"`
	InstrCached bool `json:"instr_cached"`
	// SelfChecked marks a cache hit that was re-executed by the determinism
	// self-check and found to agree with the stored schedule.
	SelfChecked bool `json:"self_checked,omitempty"`
	// PeerFilled marks a result served from a cluster peer's cache (shard
	// fill) rather than computed or cached locally.
	PeerFilled bool `json:"peer_filled,omitempty"`
	// Remote marks a result computed by a work-stealing peer on behalf of
	// this node.
	Remote bool `json:"remote,omitempty"`

	// ScheduleHash is the %016x FNV-1a digest of the synchronization
	// schedule — equal hashes across runs are the weak-determinism contract.
	ScheduleHash string `json:"schedule_hash"`
	ScheduleLen  int    `json:"schedule_len"`

	Cycles       int64 `json:"cycles"`
	WaitCycles   int64 `json:"wait_cycles"`
	Acquisitions int64 `json:"acquisitions"`
	ClockUpdates int64 `json:"clock_updates"`

	// Clockable lists the functions Optimization 1 clocked (Stats artifact).
	Clockable []string `json:"clockable,omitempty"`
	// Schedule is the full acquisition order (Schedule artifact).
	Schedule *trace.Schedule `json:"schedule,omitempty"`
	// Overhead is the Table-I-style row (OverheadRow artifact).
	Overhead *harness.OverheadRow `json:"overhead,omitempty"`

	Stage StageLatency `json:"stage_latency"`
}

// Core projects the result onto its deterministic core, the fields the weak
// determinism contract fixes, as "hash/len/cycles/wait/acquisitions/clock
// updates". Serving metadata (cache flags, stage latencies) legitimately
// varies across runs and restarts and is left out.
func (r *Result) Core() string {
	return fmt.Sprintf("%s/%d/%d/%d/%d/%d",
		r.ScheduleHash, r.ScheduleLen, r.Cycles, r.WaitCycles, r.Acquisitions, r.ClockUpdates)
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// JobView is the externally visible snapshot of a job, JSON-ready for
// GET /v1/jobs/{id}.
type JobView struct {
	ID     string  `json:"id"`
	Status Status  `json:"status"`
	Result *Result `json:"result,omitempty"`
	// Error carries the structured failure report's rendering; ErrorKind
	// classifies it (deadlock, race, divergence, misuse, …).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// job is the internal job record.
type job struct {
	id  string
	req Request

	done chan struct{} // closed when the job reaches done/failed

	// clientCtx, when non-nil, ties the job's execution to its submitter: a
	// synchronous (?wait=1) client that disconnects cancels the job instead
	// of pinning a worker and a result forever. Asynchronous submissions
	// leave it nil; they are canceled only by deadline or shutdown.
	clientCtx context.Context
	// bytes is the request's admission-control weight (source size),
	// released when the job finishes.
	bytes int64
	// probe is the circuit breaker's probe ticket when the job is the
	// half-open probe (0 otherwise), handed back if it ends without a verdict.
	probe uint64
	// reclaim re-enqueues the job if a work-stealing peer that borrowed it
	// never reports back (armed only while lent).
	reclaim *time.Timer
	// found is what the submitter's lookup learned, for the worker; written
	// before the job is queued, cleared when it finishes.
	found found

	// Guarded by the owning service's mu.
	status Status
	result *Result
	err    error
	// errKind overrides Classify for journal-recovered failures, whose
	// typed report structure does not survive serialization.
	errKind string
}

// maxThreads bounds Request.Threads: 256 is the widest machine the roadmap
// measures. It bounds only the initial threads. Each one may grow a stack of
// up to 10,000 frames of at most 256 registers, about 20 MB, so the worst
// case is still about 5 GB; a whole-machine register budget, and a bound on
// spawned threads, are not kept.
const maxThreads = 256

// notUTF8 is the detail of the ErrBadConfig misuse that refuses a program
// text that is not valid UTF-8. The journal could not keep such a text: its
// writer replaces each bad byte with U+FFFD, so the text read back would no
// longer hash to its program id, and every record naming it would be
// quarantined (DESIGN §9). A text is checked once, while nothing cached holds
// it: by submit when it finds no instrumentation entry, and by instrumented
// before it builds one.
const notUTF8 = "program source is not valid UTF-8"

// normalize validates a request and fills defaults. Every rejection is a
// typed *diag.MisuseError with ThreadID -1 (configuration-level), following
// the facade's validation conventions.
func normalize(req *Request) error {
	misuse := func(kind error, detail string) error {
		return &diag.MisuseError{Op: "service.Submit", ThreadID: -1, Kind: kind, Detail: detail}
	}
	if req.Source == "" {
		return misuse(diag.ErrBadConfig, "empty program source")
	}
	if req.Threads < 0 {
		return misuse(diag.ErrBadConfig, fmt.Sprintf("negative thread count %d", req.Threads))
	}
	if req.Threads > maxThreads {
		return misuse(diag.ErrBadConfig, fmt.Sprintf("thread count %d above %d", req.Threads, maxThreads))
	}
	if req.Threads == 0 {
		req.Threads = 4
	}
	if req.DeadlineMS < 0 {
		return misuse(diag.ErrBadConfig, fmt.Sprintf("negative deadline %dms", req.DeadlineMS))
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	if req.Preset == "" {
		req.Preset = "all"
	}
	if !slices.Contains(harness.PresetKeys(), req.Preset) { // the CLI's keys (harness.PresetByKey)
		return misuse(diag.ErrBadConfig, fmt.Sprintf("unknown preset %q (want one of %v)", req.Preset, harness.PresetKeys()))
	}
	if req.Race && req.Baseline {
		return misuse(diag.ErrRaceBackend, "race detection requires the deterministic pipeline (Baseline=false)")
	}
	return nil
}
