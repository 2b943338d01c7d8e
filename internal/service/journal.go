package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// summaries — never simulator state — and recovery is re-execution. A
// record is written by journalRecord.writeJSON through json.go's writer,
// without reflection; encoding/json stays the definition of its bytes and
// decodes it on replay.
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
//   - "submitted", for a job that needs a worker: written and synced before
//     submit returns. An accepted job survives any crash.
//   - "completed" carrying "claim", a clean result-cache hit's one record:
//     its outcome is known before anything is written, and by determinism it
//     is a function of the request, so the record names the claim record
//     that holds both. Synced before submit returns when the caller holds
//     only the id (asynchronous Submit); through Do, whose caller already
//     holds the result, batch-synced with the finish records — a crash can
//     only make the id unknown, as retention eviction does, and the
//     reservation keeps it from being reused. A completed or failed record
//     carrying "src", "req" and "result" — a clean hit's one record before
//     claim records — replays as a hit naming its claim does.
//   - "completed"/"failed" of a job a worker ran: batch-synced (by the next
//     commit, which starts once fsyncEvery records are pending and the disk
//     is idle, and on close). Losing a tail of them is harmless by
//     determinism: recovery re-executes those jobs and reproduces the same
//     results.
//   - "program" prog-<sha256 hex>: a program text, written once per log
//     right ahead of the first record that names it, so the two commit
//     together and a crash loses the text only with that record. A record
//     carrying a request names its text by this content address ("src") and
//     carries the request with an empty source; one without "src" — the
//     format before program records — replays the text it carries.
//   - "claim" claim-<sha256 hex>: a request (its text named by "src") and the
//     result every clean hit of it delivers, the job id left out; the id is
//     the SHA-256 of the record's line with its id's value empty. Written
//     once per log right ahead of its first user, as a program record is.
//
// Program and claim records are no job's records: they count toward no
// batch.
//
// There is one commit path (commitLocked): appenders take a sequence number
// under mu; one committer at a time swaps the pending buffer out and does the
// Write and the Sync with mu released, so records keep arriving while the
// disk works; whoever needs durability sleeps on cond until committed reaches
// its number, so any number of waiting submitters share one sync. A record
// nobody waits on never waits for the disk while the buffer stays under
// maxPendingBytes: the next commit takes everything appended meanwhile, so a
// crash loses at most the batch in flight plus maxPendingBytes behind it, and
// an idle service may rest with that much unsynced until the next append or
// close.
//
// Recovery cross-checks the determinism claim rather than assuming it:
// each distinct (request, schedule hash) claim among the recovered results
// is re-executed once, in the background and off the job queue; a mismatch
// is a typed *diag.DivergenceError (and trips the admission circuit
// breaker), never a silently wrong answer served from a stale log.
//
// The log is the journal's only job table. Recovery folds it into the jobs it
// hands the service; a running journal keeps only a count of jobs and the ids
// still without a finish record (the journal_jobs / journal_finished gauges),
// and a snapshot — a shipping resync, a join reply, a drain handoff — is the
// log and its pending tail through the same scan and repair recovery runs.
// Nothing rewrites a healthy log: a running service appends at most one
// finish record per job, and replay is last-finish-wins, so the duplicates a
// divergence verdict or a standby's resync overlap leave cost bytes, not
// answers.

// Journal record types.
const (
	recSubmitted = "submitted"
	recCompleted = "completed"
	recFailed    = "failed"
	recReserved  = "reserved"
	recProgram   = "program"
	recClaim     = "claim"
)

// reserveBlock is how many ids one reservation record covers.
const reserveBlock = 1024

// journalRecord is one JSONL line of the write-ahead log.
type journalRecord struct {
	Type string `json:"type"`
	// ID is the job the record belongs to; on a reserved record, the id no
	// issued id exceeds; on a program or claim record, its content address.
	ID string `json:"id"`
	// Claim names the claim record that holds a clean hit's request and
	// result.
	Claim string `json:"claim,omitempty"`
	// Src names the program record that holds the text of Req.
	Src string `json:"src,omitempty"`
	// Req is the job request (submitted records, and a clean hit's one
	// finish record): with its program text, everything needed to
	// re-execute the job after a crash.
	Req *Request `json:"req,omitempty"`
	// Result is the result summary (completed records). Artifact payloads
	// (schedules, overhead rows) are recomputed on demand, not journaled.
	Result *Result `json:"result,omitempty"`
	// Error/Kind describe a failed job's structured report rendering.
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
	// Text is a program record's text.
	Text string `json:"text,omitempty"`
}

// writeJSON writes the record as json.Marshal does and reports true. It
// reports false for a result carrying a schedule or an overhead row, which
// finishRecord never journals; w then holds part of the record.
func (rec *journalRecord) writeJSON(w *jsonWriter) bool {
	w.open('{')
	w.str(`"type":`, rec.Type, always)
	w.str(`"id":`, rec.ID, always)
	w.str(`"claim":`, rec.Claim, omitEmpty)
	w.str(`"src":`, rec.Src, omitEmpty)
	if rec.Req != nil {
		w.key(`"req":`)
		rec.Req.writeJSON(w)
	}
	if rec.Result != nil {
		w.key(`"result":`)
		if !rec.Result.writeJSON(w) {
			return false
		}
	}
	w.str(`"error":`, rec.Error, omitEmpty)
	w.str(`"kind":`, rec.Kind, omitEmpty)
	w.str(`"text":`, rec.Text, omitEmpty)
	w.close('}')
	return true
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
	// buffer the last commit wrote (the next swap reuses it), line the JSON
	// of the record on its way into a frame.
	pending, spare, line []byte
	pendingRecs          int
	fsyncEvery           int
	// texts maps each text a program record of the log holds to its program
	// id: one entry per distinct program journaled, however many jobs use it;
	// claims holds the ids of the claim records the log holds; scratch is the
	// request a record carries, its source blanked.
	texts   map[string]string
	claims  map[string]struct{}
	scratch Request

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

	// jobs counts the first records the log holds (replayed + appended), and
	// unfinished the ids among them without a finish record: bounded by the
	// jobs queued, running or lent, since a clean hit never enters it.
	jobs       int
	unfinished map[string]struct{}

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

// maxPendingBytes bounds how far the pending buffer runs ahead of a commit in
// flight before appenders of records nobody waits on wait it out: about 7,600
// of durable's hit records, 138 bytes each at seven-digit ids.
const maxPendingBytes = 1 << 20

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
// left by a crash mid-rewrite (or by the previous boot's scrub) are swept
// first. Returns the journal and the replayed jobs in first-submission order.
func openJournal(fsys vfs.FS, path string, fsyncEvery int, ship func(line []byte)) (*journal, []*journalJob, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	j := &journal{
		path:       path,
		fsys:       fsys,
		fsyncEvery: fsyncEvery,
		texts:      make(map[string]string),
		claims:     make(map[string]struct{}),
		unfinished: make(map[string]struct{}),
		ship:       ship,
	}
	j.cond = sync.NewCond(&j.mu)
	// Startup sweep: a crash between a rewrite's temp write and its rename
	// leaves `.compact` behind; the previous boot's scrub leaves its
	// diagnostic `.quarantine` behind. Both describe a past incarnation.
	fsys.Remove(path + ".compact")
	fsys.Remove(path + ".quarantine")
	raw, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	res := scanJournal(raw)
	jobs := replayJobs(res.recs, j.texts)
	for id, c := range res.claims {
		j.claims[id] = struct{}{}
		if c.Src != "" {
			j.texts[c.Req.Source] = c.Src
		}
	}
	j.jobs = len(jobs)
	for _, jj := range jobs {
		if !jj.done {
			j.unfinished[jj.id] = struct{}{}
		}
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
	return j, jobs, nil
}

// replayJobs folds scanned records into their jobs, in first-submission
// order, and notes in texts the program id of each text a record names. The
// first record carrying a request is the job's submit — a submitted record,
// or a clean hit's one finish record — and the scanner admits a record of an
// unknown id only when it carries one. Finish records are last-wins: a job
// re-executed after a crash may legitimately append a second one, and
// determinism makes them interchangeable.
func replayJobs(recs []*journalRecord, texts map[string]string) []*journalJob {
	byID := make(map[string]*journalJob)
	var jobs []*journalJob
	for _, rec := range recs {
		jj := byID[rec.ID]
		if jj == nil {
			jj = &journalJob{id: rec.ID, req: *rec.Req}
			byID[rec.ID] = jj
			jobs = append(jobs, jj)
			if rec.Src != "" {
				texts[rec.Req.Source] = rec.Src
			}
		}
		switch rec.Type {
		case recCompleted:
			jj.done, jj.result, jj.errMsg, jj.errKind = true, rec.Result, "", ""
		case recFailed:
			jj.done, jj.result, jj.errMsg, jj.errKind = true, nil, rec.Error, rec.Kind
		}
	}
	return jobs
}

// finishRecord is a job's failed record when err is set, else its completed
// record. Journaled results are summaries: schedules and overhead rows are
// recomputed on demand.
func finishRecord(id string, res *Result, err error) journalRecord {
	if err != nil {
		return journalRecord{Type: recFailed, ID: id, Error: err.Error(), Kind: Classify(err)}
	}
	trimmed := *res
	trimmed.Schedule, trimmed.Overhead = nil, nil
	return journalRecord{Type: recCompleted, ID: id, Result: &trimmed}
}

// appendJob appends one job record. With req set it is the job's first
// record — a submitted record, or a clean hit's one finish record in the
// inline form — carrying req: the reservation its id crosses and its text's
// program record go first. With durable set the record — and everything
// appended ahead of it — is written and fsynced before returning, so Submit
// never acknowledges a job a crash could lose; so is a first record whose
// reservation is not yet durable. Other records join the pending buffer,
// committed once it holds fsyncEvery records and the disk is idle: a crash
// loses at most what was buffered, which recovery repairs by re-execution.
func (j *journal) appendJob(rec journalRecord, req *Request, durable bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.admitLocked(); err != nil {
		return err
	}
	if req == nil {
		if err := j.appendJobLocked(rec); err != nil {
			return err
		}
		delete(j.unfinished, rec.ID)
		return j.settleLocked(durable)
	}
	if err := j.reserveLocked(rec.ID); err != nil {
		return err
	}
	pid, err := j.programLocked(req.Source)
	if err != nil {
		return err
	}
	j.scratch = *req
	j.scratch.Source = ""
	rec.Src, rec.Req = pid, &j.scratch
	if err := j.appendJobLocked(rec); err != nil {
		return err
	}
	if rec.Type == recSubmitted {
		j.unfinished[rec.ID] = struct{}{}
	}
	return j.settleFirstLocked(durable)
}

// appendHit appends a clean hit's one record, a completed record naming the
// claim of req and res, and returns the claim's id. cid is the id the caller
// remembers for req, or "": a claim the log does not hold yet is digested and
// written first, behind its program record, so the two commit together.
// Durability is appendJob's for a first record.
func (j *journal) appendHit(id string, req *Request, res *Result, cid string, durable bool) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.admitLocked(); err != nil {
		return "", err
	}
	if err := j.reserveLocked(id); err != nil {
		return "", err
	}
	if _, ok := j.claims[cid]; !ok {
		var err error
		if cid, err = j.claimLocked(req, res); err != nil {
			return "", err
		}
	}
	if err := j.appendJobLocked(journalRecord{Type: recCompleted, ID: id, Claim: cid}); err != nil {
		return "", err
	}
	return cid, j.settleFirstLocked(durable)
}

// reserveLocked appends the reservations a first record's id crosses, one
// record per block so that a reservation line recovery finds damaged stands
// for reserveBlock ids and no more (scanResult.idFloor).
func (j *journal) reserveLocked(id string) error {
	for n, _ := numericID(id); n > j.reserved; {
		j.reserved += reserveBlock
		if err := j.appendLocked(journalRecord{Type: recReserved, ID: jobID(j.reserved)}); err != nil {
			return err
		}
		j.reservedAt = j.appended + 1 // the job record appended next
	}
	return nil
}

// programLocked returns text's program id, appending its program record
// unless the log holds it.
func (j *journal) programLocked(text string) (string, error) {
	if pid, ok := j.texts[text]; ok {
		return pid, nil
	}
	pid := programID(text)
	if err := j.appendLocked(journalRecord{Type: recProgram, ID: pid, Text: text}); err != nil {
		return "", err
	}
	j.texts[text] = pid
	return pid, nil
}

// claimLocked returns the id of the claim of req and res — res without its
// job id and artifacts — appending its program record and its claim record
// unless the log holds them.
func (j *journal) claimLocked(req *Request, res *Result) (string, error) {
	pid, err := j.programLocked(req.Source)
	if err != nil {
		return "", err
	}
	j.scratch = *req
	j.scratch.Source = ""
	trimmed := *res
	trimmed.JobID, trimmed.Schedule, trimmed.Overhead = "", nil, nil
	rec := journalRecord{Type: recClaim, Src: pid, Req: &j.scratch, Result: &trimmed}
	w := jsonWriter{b: j.line[:0]}
	rec.writeJSON(&w) // trimmed carries no artifact, the one thing the writer declines
	j.line = w.b
	rec.ID = claimID(w.b)
	if _, ok := j.claims[rec.ID]; !ok {
		if err := j.appendLocked(rec); err != nil {
			return "", err
		}
		j.claims[rec.ID] = struct{}{}
	}
	return rec.ID, nil
}

// settleFirstLocked ends the append of a job's first record: the job is
// counted, and the record waits for the disk when its caller needs it durable
// or the reservation its id crossed is not durable yet.
func (j *journal) settleFirstLocked(durable bool) error {
	j.jobs++
	return j.settleLocked(durable || j.committed < j.reservedAt)
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
func (j *journal) appendJobLocked(rec journalRecord) error {
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	j.appended++
	j.pendingRecs++
	return nil
}

// settleLocked ends an append. A record its caller needs durable waits for
// the commit that covers it. A record nobody waits on returns at once while
// a commit is in flight — the next commit takes it with everything else
// pending — unless the buffer has reached maxPendingBytes: then it waits the
// commit out and leaves the buffer to the next appender. With the disk idle,
// the record that fills the batch to fsyncEvery commits it.
func (j *journal) settleLocked(durable bool) error {
	switch {
	case durable:
		return j.awaitLocked(j.appended)
	case j.committing:
		if len(j.pending) < maxPendingBytes {
			return nil
		}
		j.quiesceLocked()
		if j.broken {
			return errJournalBroken
		}
	case j.pendingRecs >= j.fsyncEvery:
		return j.commitLocked()
	}
	return nil
}

// appendLocked frames rec into the pending buffer and feeds the shipping
// hook. Shipping sees the append stream — every record in append order —
// which is exactly what a standby needs to replay.
func (j *journal) appendLocked(rec journalRecord) error {
	w := jsonWriter{b: j.line[:0]}
	if !rec.writeJSON(&w) {
		j.broken = true
		return fmt.Errorf("journal: marshal: the %s record of %s carries a result artifact", rec.Type, rec.ID)
	}
	j.line = w.b
	start := len(j.pending)
	j.pending = appendFrame(j.pending, j.line)
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

// quiesceLocked waits out a commit in flight: a snapshot reads the file the
// committer is writing, close and kill close it.
func (j *journal) quiesceLocked() {
	for j.committing {
		j.cond.Wait()
	}
}

// snapshotRecords is the image this node's own recovery would open, one line
// per record: the log and its pending tail through recovery's scan and
// repair, so that it ends with the reservation. It is what a standby resyncs
// from, a joiner cross-checks and a drain hands over; a node that takes over
// from it continues above every id this one issued, including hits whose
// records never left it.
func (j *journal) snapshotRecords() ([][]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.quiesceLocked()
	raw, err := j.fsys.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("journal: snapshot %s: %w", j.path, err)
	}
	scan := scanJournal(append(raw, j.pending...))
	lines := bytes.SplitAfter(scan.repaired(), []byte("\n"))
	return lines[:len(lines)-1], nil // the image ends in a newline
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

// snapshotLive returns the journal's gauges (for tests and stats): total jobs
// known, how many have finish records, and what the commit path has made
// durable — syncs, and the job records they covered.
func (j *journal) snapshotLive() (jobs, finished int, syncs, records int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jobs, j.jobs - len(j.unfinished), j.syncs, j.records
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

// programID is a program text's content address: the id of its program
// record, which submitted records name it by.
func programID(text string) string {
	sum := sha256.Sum256([]byte(text))
	return "prog-" + hex.EncodeToString(sum[:])
}

// claimID is a claim record's content address: "claim-" and the SHA-256 of
// body, the record's JSON text with its id's value empty — the bytes the line
// holds, so that a reader checks the line it reads and not its own rewrite of
// it (blankClaimID).
func claimID(body []byte) string {
	sum := sha256.Sum256(body)
	return "claim-" + hex.EncodeToString(sum[:])
}

// reservationLine is the framed reservation record for mark n.
func reservationLine(n int64) []byte {
	var w jsonWriter
	(&journalRecord{Type: recReserved, ID: jobID(n)}).writeJSON(&w) // two strings: cannot fail
	return frameLine(w.b)
}

var (
	errJournalBroken = fmt.Errorf("journal unwritable")
	errJournalClosed = fmt.Errorf("journal closed")
)
