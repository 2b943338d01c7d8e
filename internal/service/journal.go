package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/vfs"
)

// The job journal is the service's crash-safety substrate: an append-only
// JSONL write-ahead log of job lifecycle records. Determinism is what makes
// this journal unusually cheap (the Determinator argument for deterministic
// execution as a fault-tolerance substrate): a recovered job needs no state
// transfer, because re-executing its journaled request provably reproduces
// the lost result. The journal therefore stores only requests and result
// summaries — never simulator state — and recovery is re-execution.
//
// Durability contract, record by record:
//
//   - "submitted" records are group-committed: the record is written and
//     fsynced before Submit returns the job id to the client. An accepted
//     job survives any crash.
//   - "completed"/"failed" records are batch-fsynced (every FsyncEvery
//     records, plus on Close and compaction). Losing a tail of completion
//     records in a crash is harmless by determinism: recovery re-executes
//     those jobs and provably reproduces the same results.
//
// Recovery cross-checks the determinism claim rather than assuming it:
// every recovered successful result is re-executed in the background and
// its fresh schedule hash compared to the journaled one; a mismatch is a
// typed *diag.DivergenceError (and trips the admission circuit breaker),
// never a silently wrong answer served from a stale log.
//
// The raw log grows with every record, so the journal compacts: when the
// record count exceeds CompactEvery and is more than twice the live-job
// count, the log is rewritten (temp file + fsync + atomic rename) to one
// submitted record — plus one finish record when finished — per known job.

// Journal record types.
const (
	recSubmitted = "submitted"
	recCompleted = "completed"
	recFailed    = "failed"
)

// journalRecord is one JSONL line of the write-ahead log.
type journalRecord struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	// Req is the full job request (submitted records): everything needed to
	// re-execute the job after a crash.
	Req *Request `json:"req,omitempty"`
	// Result is the result summary (completed records). Artifact payloads
	// (schedules, overhead rows) are recomputed on demand, not journaled.
	Result *Result `json:"result,omitempty"`
	// Error/Kind describe a failed job's structured report rendering.
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
}

// journalJob is the replayed state of one journaled job: its request plus
// its finish record, if any was durable before the crash.
type journalJob struct {
	id      string
	req     Request
	done    bool
	result  *Result
	errMsg  string
	errKind string
}

// journal is the append-only JSONL write-ahead log. All methods are
// crash-aware: pending holds bytes not yet handed to the OS, so a simulated
// SIGTERM (kill) loses exactly the batch-buffered completion records and
// nothing else — the same failure surface a real process crash has with
// fsync batching.
type journal struct {
	mu   sync.Mutex
	path string
	fsys vfs.FS
	f    vfs.File

	// pending buffers batch-fsynced records (completions) not yet written.
	pending     bytes.Buffer
	pendingRecs int
	fsyncEvery  int

	// rawRecords counts records in the on-disk log (replayed + appended);
	// compaction triggers on rawRecords vs the live set.
	rawRecords   int
	compactEvery int

	// live is the replayed + current job state, order its first-seen id
	// order (compaction preserves it).
	live  map[string]*journalJob
	order []string

	// chaos injects write errors (nil-safe); broken marks the journal
	// permanently degraded after an unrecovered write error; closed marks
	// one a clean shutdown has flushed and closed, which takes no more
	// records (errJournalClosed) but is not a fault.
	chaos  *chaos
	broken bool
	closed bool

	// quarantined counts the damaged lines the opening scrub pass moved to
	// the `.quarantine` sidecar — the boot's detected-corruption tally.
	quarantined int

	// ship, when set, receives a copy of every appended record line — the
	// journal-shipping feed a cluster standby replays for warm takeover. It
	// runs under j.mu and must only buffer (see Config.ShipRecord).
	ship func(line []byte)
}

// maxJournalRecord bounds one record line on replay. A line past it cannot
// be a record this journal wrote (requests are capped far below it at the
// HTTP edge), so replay treats it as external damage: stop and truncate to
// the last good prefix, exactly like a malformed line.
const maxJournalRecord = 32 << 20

// openJournal opens (creating if needed) the journal at path and replays it
// through a scrub pass (see scrub.go): intact records replay, damaged
// interior lines are quarantined to the `.quarantine` sidecar and the log is
// rewritten without them, and a torn final line — the signature of a crash
// mid-write — is truncated away. Stale `.compact` and `.quarantine` files
// left by a crash mid-compaction (or by the previous boot's scrub) are swept
// first. Returns the journal and the replayed jobs in first-submission order.
func openJournal(fsys vfs.FS, path string, fsyncEvery, compactEvery int, chaos *chaos, ship func(line []byte)) (*journal, []*journalJob, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	j := &journal{
		path:         path,
		fsys:         fsys,
		fsyncEvery:   fsyncEvery,
		compactEvery: compactEvery,
		live:         make(map[string]*journalJob),
		chaos:        chaos,
		ship:         ship,
	}
	// Startup sweep: a crash between compaction's temp write and its rename
	// leaves `.compact` behind; the previous boot's scrub leaves its
	// diagnostic `.quarantine` behind. Both describe a past incarnation.
	fsys.Remove(path + ".compact")
	fsys.Remove(path + ".quarantine")
	raw, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	res := scanJournal(raw)
	for _, rec := range res.recs {
		j.replay(rec)
		j.rawRecords++
	}
	j.quarantined = len(res.quarantined)
	if len(res.quarantined) > 0 {
		// Sidecar is best-effort diagnostics; the rewrite is not — failing
		// to drop quarantined lines would let damage replay next boot.
		_ = writeQuarantine(fsys, path, res.quarantined)
		if err := rewriteLog(fsys, path, res.keep); err != nil {
			return nil, nil, err
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if len(res.quarantined) == 0 && res.tornBytes > 0 {
		// Torn tail only: cheaper to truncate in place than rewrite.
		if err := f.Truncate(int64(len(raw) - res.tornBytes)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	j.f = f
	jobs := make([]*journalJob, 0, len(j.order))
	for _, id := range j.order {
		jobs = append(jobs, j.live[id])
	}
	return j, jobs, nil
}

// replay folds one record into the live state. Finish records are last-wins:
// a job re-executed after a crash may legitimately append a second finish
// record, and determinism makes them interchangeable.
func (j *journal) replay(rec *journalRecord) {
	if rec.ID == "" {
		return // the service never writes empty ids; this is external damage
	}
	switch rec.Type {
	case recSubmitted:
		if _, ok := j.live[rec.ID]; ok || rec.Req == nil {
			return
		}
		j.live[rec.ID] = &journalJob{id: rec.ID, req: *rec.Req}
		j.order = append(j.order, rec.ID)
	case recCompleted:
		if jj, ok := j.live[rec.ID]; ok && rec.Result != nil {
			jj.done, jj.result, jj.errMsg, jj.errKind = true, rec.Result, "", ""
		}
	case recFailed:
		if jj, ok := j.live[rec.ID]; ok {
			jj.done, jj.result, jj.errMsg, jj.errKind = true, nil, rec.Error, rec.Kind
		}
	}
}

// appendSubmitted durably records an accepted job: the record — and any
// buffered completion records ahead of it — is written and fsynced before
// returning, so Submit never acknowledges a job a crash could lose.
func (j *journal) appendSubmitted(id string, req *Request) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return errJournalBroken
	}
	if err := j.appendLocked(&journalRecord{Type: recSubmitted, ID: id, Req: req}); err != nil {
		return err
	}
	j.live[id] = &journalJob{id: id, req: *req}
	j.order = append(j.order, id)
	return j.flushLocked(true)
}

// appendFinished records a job's outcome. Finish records are batch-fsynced:
// the write lands in the pending buffer and is flushed every fsyncEvery
// records. A crash can lose at most the buffered batch, which recovery
// repairs by re-execution.
func (j *journal) appendFinished(id string, res *Result, errMsg, errKind string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return errJournalBroken
	}
	rec := &journalRecord{Type: recFailed, ID: id, Error: errMsg, Kind: errKind}
	if res != nil {
		// Strip heavyweight artifacts: journaled results are summaries;
		// schedules and overhead rows are recomputed on demand.
		trimmed := *res
		trimmed.Schedule, trimmed.Overhead = nil, nil
		rec = &journalRecord{Type: recCompleted, ID: id, Result: &trimmed}
	}
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	if jj, ok := j.live[id]; ok {
		jj.done, jj.result, jj.errMsg, jj.errKind = true, rec.Result, errMsg, errKind
	}
	if j.pendingRecs >= j.fsyncEvery {
		if err := j.flushLocked(true); err != nil {
			return err
		}
	}
	return j.maybeCompactLocked()
}

// appendLocked marshals rec into the pending buffer and feeds the shipping
// hook. Shipping sees the logical append stream — every record in append
// order, including ones a later compaction rewrites — which is exactly what
// a standby needs to replay (replay is last-finish-wins, so the stream and
// its compaction are interchangeable).
func (j *journal) appendLocked(rec *journalRecord) error {
	if j.closed {
		return errJournalClosed
	}
	if err := j.chaos.journalErr(); err != nil {
		j.broken = true
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		j.broken = true
		return fmt.Errorf("journal: marshal: %w", err)
	}
	line := frameLine(b)
	j.pending.Write(line)
	j.pendingRecs++
	if j.ship != nil {
		// Ship the framed bytes verbatim: the standby's log stays
		// byte-identical to the primary's append stream, and its own
		// recovery verifies the same CRCs.
		shipped := make([]byte, len(line))
		copy(shipped, line)
		j.ship(shipped)
	}
	return nil
}

// snapshotRecords renders the live job table as compaction-style record
// lines — the bounded resync payload journal shipping falls back to when the
// standby lost the stream.
func (j *journal) snapshotRecords() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines, _ := j.renderLocked() // on a marshal error: the lines before it
	return lines
}

// renderLocked renders the live job table in first-seen order — one submitted
// record per job, plus its finish record when done: the snapshot payload and
// the compacted log's image. It stops at the first record that does not
// marshal, so a compaction never drops a live job silently.
func (j *journal) renderLocked() ([][]byte, error) {
	var out [][]byte
	for _, id := range j.order {
		jj := j.live[id]
		recs := []*journalRecord{{Type: recSubmitted, ID: jj.id, Req: &jj.req}}
		switch {
		case jj.done && jj.result != nil:
			recs = append(recs, &journalRecord{Type: recCompleted, ID: jj.id, Result: jj.result})
		case jj.done:
			recs = append(recs, &journalRecord{Type: recFailed, ID: jj.id, Error: jj.errMsg, Kind: jj.errKind})
		}
		for _, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				return out, err
			}
			out = append(out, frameLine(b))
		}
	}
	return out, nil
}

// flushLocked hands the pending buffer to the OS and, when sync is set,
// fsyncs — the group-commit point.
func (j *journal) flushLocked(sync bool) error {
	if j.pendingRecs > 0 {
		if _, err := j.f.Write(j.pending.Bytes()); err != nil {
			j.broken = true
			return fmt.Errorf("journal: write %s: %w", j.path, err)
		}
		j.rawRecords += j.pendingRecs
		j.pending.Reset()
		j.pendingRecs = 0
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.broken = true
			return fmt.Errorf("journal: fsync %s: %w", j.path, err)
		}
	}
	return nil
}

// journalCompactEvery is the compactEvery a Service opens its journal with.
const journalCompactEvery = 4096

// maybeCompactLocked rewrites the log when it holds more than compactEvery
// records and at least twice the live-job count: one submitted record per
// job plus its finish record. The rewrite is crash-safe (vfs.ReplaceFile), so
// a crash mid-compaction leaves the old log intact.
func (j *journal) maybeCompactLocked() error {
	if j.rawRecords+j.pendingRecs <= j.compactEvery || j.rawRecords+j.pendingRecs <= 2*len(j.live) {
		return nil
	}
	if err := j.flushLocked(true); err != nil {
		return err
	}
	lines, err := j.renderLocked()
	if err == nil {
		err = vfs.ReplaceFile(j.fsys, j.path+".compact", j.path, bytes.Join(lines, nil))
	}
	if err != nil {
		j.broken = true
		return fmt.Errorf("journal: compact: %w", err)
	}
	old := j.f
	f, err := j.fsys.OpenFile(j.path, os.O_WRONLY, 0o644)
	if err != nil {
		j.broken = true
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		j.broken = true
		return fmt.Errorf("journal: reopen seek: %w", err)
	}
	old.Close()
	j.f = f
	j.rawRecords = len(lines)
	return nil
}

// close flushes and fsyncs everything — the clean-shutdown path.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if !j.broken {
		err = j.flushLocked(true)
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f, j.closed = nil, true
	return err
}

// kill abandons the journal the way a process crash would: the pending
// buffer — the batch-fsync window — is dropped on the floor, and the file
// is closed without a flush. The chaos harness uses this to simulate
// SIGTERM-style restarts mid-queue.
func (j *journal) kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	j.pending.Reset()
	j.pendingRecs = 0
	j.f.Close()
	j.f = nil
	j.broken = true
}

// snapshotLive returns the journal's live view (for tests and stats): total
// jobs known and how many have durable finish records.
func (j *journal) snapshotLive() (jobs, finished int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, jj := range j.live {
		if jj.done {
			finished++
		}
	}
	return len(j.live), finished
}

var (
	errJournalBroken = fmt.Errorf("journal unwritable")
	errJournalClosed = fmt.Errorf("journal closed")
)
