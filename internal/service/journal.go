package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
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
// Durability contract, record by record (DESIGN §9 has it as a table). The
// rule behind every row: a caller waits for the disk exactly when a crash
// could lose something it was promised.
//
//   - "reserved" job-N: no id above N has been issued. Written by the append
//     that crosses the previous mark, reserveBlock ids at a time, and synced
//     before any id above the previous mark is returned to anyone. Recovery
//     continues the id sequence from the greater of the highest reservation
//     and the highest id it saw, so a lost tail of records can never cause an
//     id to be issued twice.
//   - "submitted", for a job that needs a worker or whose caller holds only
//     the id (asynchronous Submit): written and synced before submit returns.
//     An accepted job survives any crash.
//   - "submitted", for a clean result-cache hit through Do: written to the
//     pending buffer and batch-synced with the finish records. The caller
//     already holds the result; a crash can only make the id unknown, as
//     retention eviction does, and the reservation keeps it from being reused.
//   - "completed"/"failed": batch-synced (every fsyncEvery records, plus on
//     close and compaction). Losing a tail of them is harmless by determinism:
//     recovery re-executes those jobs and reproduces the same results.
//
// There is one commit path (commitLocked): appenders take a sequence number
// under mu; one committer at a time swaps the pending buffer out and does the
// Write and the Sync with mu released, so records keep arriving while the
// disk works; whoever needs durability sleeps on cond until committed reaches
// its number, so any number of waiting submitters share one sync. An appender
// that fills the fresh buffer to fsyncEvery while a commit is in flight waits
// for it to finish: a crash loses at most two batches of records nobody was
// promised.
//
// Recovery cross-checks the determinism claim rather than assuming it:
// every recovered successful result is re-executed in the background and
// its fresh schedule hash compared to the journaled one; a mismatch is a
// typed *diag.DivergenceError (and trips the admission circuit breaker),
// never a silently wrong answer served from a stale log.
//
// Compaction removes duplicates and nothing else: when the log holds more
// than compactEvery job records and more than twice the live-job count (the
// finish records repeated crash / recover cycles leave behind), it is
// rewritten (temp file + fsync + atomic rename) to the reservation, then one
// submitted record — plus one finish record when finished — per known job.
// A log without duplicates never compacts, and the live set is unbounded.

// Journal record types.
const (
	recSubmitted = "submitted"
	recCompleted = "completed"
	recFailed    = "failed"
	recReserved  = "reserved"
)

// reserveBlock is how many ids one reservation record covers.
const reserveBlock = 1024

// journalRecord is one JSONL line of the write-ahead log.
type journalRecord struct {
	Type string `json:"type"`
	// ID is the job the record belongs to; on a reserved record, the id no
	// issued id exceeds.
	ID string `json:"id"`
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
// SIGTERM (kill) loses exactly the records nobody was waiting on and nothing
// else — the same failure surface a real process crash has with fsync
// batching.
type journal struct {
	mu   sync.Mutex
	cond *sync.Cond // on mu: committed moved, or the committer finished
	path string
	fsys vfs.FS
	f    vfs.File

	// pending holds the framed records not yet handed to the OS, spare the
	// buffer the last commit wrote (the next swap reuses it); enc marshals a
	// record into encBuf on its way into a frame.
	pending, spare []byte
	pendingRecs    int
	fsyncEvery     int
	encBuf         bytes.Buffer
	enc            *json.Encoder

	// appended numbers the job records taken so far, committed is the last
	// one a finished Write + Sync covers, committing says a committer is
	// between its swap and its publish. syncs and records count what the
	// commit path has made durable (the journal_syncs / journal_records
	// gauges).
	appended, committed uint64
	committing          bool
	syncs, records      int64

	// reserved is the id high-water mark (no id above it has been issued),
	// reservedAt the number of the job record written right behind the latest
	// reservation: until committed reaches it the mark is not durable, and no
	// submit may return.
	reserved   int64
	reservedAt uint64

	// rawRecords counts the job records of the log, pending ones included
	// (replayed + appended; reservations are not job records); compaction
	// triggers on it against the live set. compactions counts the rewrites.
	rawRecords   int
	compactEvery int
	compactions  int

	// live is the replayed + current job state, order its first-seen id
	// order (compaction preserves it).
	live  map[string]*journalJob
	order []string

	// broken marks the journal permanently degraded after an unrecovered
	// write error; closed marks one a clean shutdown has flushed and closed,
	// which takes no more records (errJournalClosed) but is not a fault.
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
// interior lines are quarantined to the `.quarantine` sidecar, a torn final
// line — the signature of a crash mid-write — is dropped, and a damaged log
// is rewritten without either, closed by a reservation that makes up for
// whatever the lost lines reserved. Stale `.compact` and `.quarantine` files
// left by a crash mid-compaction (or by the previous boot's scrub) are swept
// first. Returns the journal and the replayed jobs in first-submission order.
func openJournal(fsys vfs.FS, path string, fsyncEvery, compactEvery int, ship func(line []byte)) (*journal, []*journalJob, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	j := &journal{
		path:         path,
		fsys:         fsys,
		fsyncEvery:   fsyncEvery,
		compactEvery: compactEvery,
		live:         make(map[string]*journalJob),
		ship:         ship,
	}
	j.cond = sync.NewCond(&j.mu)
	j.enc = json.NewEncoder(&j.encBuf)
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
	j.reserved = res.idFloor()
	j.quarantined = len(res.quarantined)
	if res.damaged() > 0 {
		// Sidecar is best-effort diagnostics; the rewrite is not — failing
		// to drop quarantined lines would let damage replay next boot.
		if len(res.quarantined) > 0 {
			_ = writeQuarantine(fsys, path, res.quarantined)
		}
		if err := rewriteLog(fsys, path, res.repaired()); err != nil {
			return nil, nil, err
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
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

// appendSubmitted records an accepted job. With durable set the record — and
// everything appended ahead of it — is written and fsynced before returning,
// so Submit never acknowledges a job a crash could lose. Without it (a clean
// hit whose caller is handed the result, not the id) the record joins the
// batch the finish records commit in; it still waits when it fills the batch
// or when the reservation covering its id is not yet durable.
func (j *journal) appendSubmitted(id string, req *Request, durable bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.admitLocked(); err != nil {
		return err
	}
	// The id crosses the mark: reserve the next block, one record per block
	// so that a reservation line recovery finds damaged stands for
	// reserveBlock ids and no more (scanResult.idFloor).
	for n, _ := numericID(id); n > j.reserved; {
		j.reserved += reserveBlock
		if err := j.appendLocked(&journalRecord{Type: recReserved, ID: jobID(j.reserved)}); err != nil {
			return err
		}
		j.reservedAt = j.appended + 1 // the submit record appended below
	}
	if err := j.appendJobLocked(&journalRecord{Type: recSubmitted, ID: id, Req: req}); err != nil {
		return err
	}
	j.live[id] = &journalJob{id: id, req: *req}
	j.order = append(j.order, id)
	return j.settleLocked(durable || j.committed < j.reservedAt)
}

// appendFinished records a job's outcome. Finish records are batch-fsynced:
// the write lands in the pending buffer and is committed every fsyncEvery
// records. A crash can lose at most the buffered batches, which recovery
// repairs by re-execution.
func (j *journal) appendFinished(id string, res *Result, errMsg, errKind string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.admitLocked(); err != nil {
		return err
	}
	rec := &journalRecord{Type: recFailed, ID: id, Error: errMsg, Kind: errKind}
	if res != nil {
		// Strip heavyweight artifacts: journaled results are summaries;
		// schedules and overhead rows are recomputed on demand.
		trimmed := *res
		trimmed.Schedule, trimmed.Overhead = nil, nil
		rec = &journalRecord{Type: recCompleted, ID: id, Result: &trimmed}
	}
	if err := j.appendJobLocked(rec); err != nil {
		return err
	}
	if jj, ok := j.live[id]; ok {
		jj.done, jj.result, jj.errMsg, jj.errKind = true, rec.Result, errMsg, errKind
	}
	if err := j.settleLocked(false); err != nil {
		return err
	}
	return j.maybeCompactLocked()
}

// admitLocked says whether the journal takes another job record: not once it
// broke, and not after a clean close.
func (j *journal) admitLocked() error {
	switch {
	case j.broken:
		return errJournalBroken
	case j.closed:
		return errJournalClosed
	}
	return nil
}

// appendJobLocked appends one job record and takes its sequence number.
func (j *journal) appendJobLocked(rec *journalRecord) error {
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	j.appended++
	j.pendingRecs++
	j.rawRecords++
	return nil
}

// settleLocked ends an append, once the live table reflects the record (a
// compaction may run whenever j.mu is released, and renders from it). A
// record its caller needs durable waits for the commit that covers it. One
// that fills the batch to fsyncEvery is the group-commit point for records
// nobody waits on: it commits the batch, unless a commit is in flight, which
// it then waits out — the fresh buffer cannot run further ahead of the disk
// than that — and leaves the batch to the next appender.
func (j *journal) settleLocked(durable bool) error {
	switch {
	case durable:
		return j.awaitLocked(j.appended)
	case j.pendingRecs < j.fsyncEvery:
		return nil
	case !j.committing:
		return j.commitLocked()
	}
	j.quiesceLocked()
	if j.broken {
		return errJournalBroken
	}
	return nil
}

// appendLocked frames rec into the pending buffer and feeds the shipping
// hook. Shipping sees the logical append stream — every record in append
// order, including ones a later compaction rewrites — which is exactly what
// a standby needs to replay (replay is last-finish-wins, so the stream and
// its compaction are interchangeable).
func (j *journal) appendLocked(rec *journalRecord) error {
	j.encBuf.Reset()
	// Encode is Marshal into a buffer this journal keeps, plus a newline.
	if err := j.enc.Encode(rec); err != nil {
		j.broken = true
		return fmt.Errorf("journal: marshal: %w", err)
	}
	start := len(j.pending)
	j.pending = appendFrame(j.pending, bytes.TrimSuffix(j.encBuf.Bytes(), []byte("\n")))
	if j.ship != nil {
		// Ship the framed bytes verbatim: the standby's log stays
		// byte-identical to the primary's append stream, and its own
		// recovery verifies the same CRCs.
		j.ship(bytes.Clone(j.pending[start:]))
	}
	return nil
}

// awaitLocked returns once the job record numbered upTo is durable: as a
// follower of the commit in flight when there is one, as the committer when
// there is none. Callers hold j.mu; it is released while waiting or writing.
func (j *journal) awaitLocked(upTo uint64) error {
	for j.committed < upTo {
		switch {
		case j.broken:
			return errJournalBroken
		case j.committing:
			j.cond.Wait()
		default:
			if err := j.commitLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitLocked is the one path to the disk: swap the pending buffer out, then
// Write and Sync it with j.mu released — appenders fill the other buffer
// meanwhile — and publish what became durable to whoever sleeps on cond.
// Callers hold j.mu and have seen committing false.
func (j *journal) commitLocked() error {
	buf, recs, upTo := j.pending, j.pendingRecs, j.appended
	j.pending, j.pendingRecs, j.committing = j.spare[:0], 0, true
	j.mu.Unlock()
	_, err := j.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("journal: write %s: %w", j.path, err)
	} else if err = j.f.Sync(); err != nil {
		err = fmt.Errorf("journal: fsync %s: %w", j.path, err)
	}
	j.mu.Lock()
	j.spare, j.committing = buf, false
	if err != nil {
		j.broken = true
	} else {
		j.committed = upTo
		j.syncs++
		j.records += int64(recs)
	}
	j.cond.Broadcast()
	return err
}

// quiesceLocked waits out a commit in flight: compaction, close and kill
// replace or close the file the committer is writing.
func (j *journal) quiesceLocked() {
	for j.committing {
		j.cond.Wait()
	}
}

// snapshotRecords renders the live job table as compaction-style record
// lines — the bounded resync payload journal shipping falls back to when the
// standby lost the stream. The reservation is not part of it: it speaks of
// this node's ids, and a peer replaying the jobs issues its own.
func (j *journal) snapshotRecords() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines, _ := j.renderLocked() // on a marshal error: the lines before it
	return lines
}

// renderLocked renders the live job table in first-seen order — one submitted
// record per job, plus its finish record when done: the snapshot payload and,
// behind the reservation, the compacted log's image. It stops at the first
// record that does not marshal, so a compaction never drops a live job
// silently.
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

// journalCompactEvery is the compactEvery a Service opens its journal with.
const journalCompactEvery = 4096

// maybeCompactLocked rewrites the log when it holds more than compactEvery
// job records and more than twice the live-job count, which only duplicate
// finish records can bring about: the reservation, then one submitted record
// per job plus its finish record. The image is rendered from the live table,
// which already reflects every pending record, so the pending buffer is
// dropped rather than flushed first; the rewrite is crash-safe
// (vfs.ReplaceFile), so a crash mid-compaction leaves the old log intact.
func (j *journal) maybeCompactLocked() error {
	if j.rawRecords <= j.compactEvery || j.rawRecords <= 2*len(j.live) {
		return nil
	}
	j.quiesceLocked()
	if j.broken || j.closed {
		return nil // killed or closed while this finisher waited
	}
	lines, err := j.renderLocked()
	if err == nil {
		image := append([][]byte{reservationLine(j.reserved)}, lines...)
		err = vfs.ReplaceFile(j.fsys, j.path+".compact", j.path, bytes.Join(image, nil))
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
	j.pending, j.pendingRecs, j.committed = j.pending[:0], 0, j.appended
	j.rawRecords = len(lines)
	j.compactions++
	j.cond.Broadcast()
	return nil
}

// close commits everything and closes the file — the clean-shutdown path.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.quiesceLocked()
	if j.f == nil {
		return nil
	}
	j.closed = true // the final commit releases j.mu: nothing may slip in behind it
	var err error
	if !j.broken && len(j.pending) > 0 {
		err = j.commitLocked()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// kill abandons the journal the way a process crash would: the pending
// buffer — the records nobody was waiting on — is dropped on the floor, and
// the file is closed without a flush; whoever was waiting on a record in it
// is told the journal broke. Service.Kill uses this to simulate SIGTERM-style
// restarts mid-queue.
func (j *journal) kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.quiesceLocked()
	if j.f == nil {
		return
	}
	j.pending, j.pendingRecs = nil, 0
	j.f.Close()
	j.f = nil
	j.broken = true
	j.cond.Broadcast()
}

// snapshotLive returns the journal's live view (for tests and stats): total
// jobs known, how many have finish records, and what the commit path has made
// durable — syncs, and the job records they covered.
func (j *journal) snapshotLive() (jobs, finished int, syncs, records int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, jj := range j.live {
		if jj.done {
			finished++
		}
	}
	return len(j.live), finished, j.syncs, j.records
}

const jobIDPrefix = "job-"

// jobID is the id the service issues for sequence number n.
func jobID(n int64) string {
	return string(strconv.AppendInt(append(make([]byte, 0, 24), jobIDPrefix...), n, 10))
}

// numericID parses the N of a "job-N" id. More than 18 digits is not one the
// service issued, and refusing it keeps a hostile log from overflowing the
// sequence it seeds.
func numericID(id string) (int64, bool) {
	digits, ok := strings.CutPrefix(id, jobIDPrefix)
	if !ok || len(digits) > 18 {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 63)
	return int64(n), err == nil
}

// reservationLine is the framed reservation record for mark n.
func reservationLine(n int64) []byte {
	b, _ := json.Marshal(&journalRecord{Type: recReserved, ID: jobID(n)}) // two strings: cannot fail
	return frameLine(b)
}

var (
	errJournalBroken = fmt.Errorf("journal unwritable")
	errJournalClosed = fmt.Errorf("journal closed")
)
