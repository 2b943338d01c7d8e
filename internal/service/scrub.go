package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/vfs"
)

// Scrub-on-recovery. Journal recovery used to stop at the first damaged
// interior line and truncate everything after it — correct for a torn tail,
// catastrophic for a single flipped bit in the middle of a long log (every
// later job silently discarded). The scrub pass instead classifies every
// line: intact records replay, damaged ones are quarantined to a
// `<path>.quarantine` sidecar (with a reason header per line) and the log is
// rewritten without them, so one bad record costs one job — detected and
// counted, never silently — instead of the whole suffix. Replay is the same
// pass: each job record it keeps is folded into its job as it is read, and
// the ids of the intact program and claim records it reads are the running
// journal's index of its log.
//
// What quarantines: a failed CRC frame, unparseable JSON, an empty job id, an
// unknown record type, a submitted record with no request, a finish record
// for a job with no submitted record (a "ghost" — its submit was itself
// damaged), a completed record with no result, a reservation whose id is
// not a job-N, a program record whose text does not hash to its id, a
// submitted record naming a program no earlier intact program record holds
// (so one damaged program line costs that program's jobs), and one that
// both names a program and carries a text; a claim record without a request
// or a result, or whose body does not hash to its id, or whose request fails
// those rules; a record naming a claim no earlier intact claim record holds
// (so one damaged claim line costs that claim's hits), and one naming a claim
// that is no completed record or also carries a request or a result. A
// finish record that carries a request or names a claim — a clean hit's one
// record — is its job's submit when the id is new, its request read by the
// submitted record's rules (a claim's with its result), and a plain finish
// record otherwise (the first submit wins). What does not: duplicate
// submitted, program, claim and finish records are legitimate products of
// crash-recovery re-execution and of a shipped stream overlapping its
// snapshot, and the fold handles them (first-submit-wins, last-finish-wins,
// a program or claim id is its content); blank lines are kept; a torn final
// line (no trailing newline) is truncation damage, not corruption, and is
// dropped without quarantine exactly as before.
//
// The sidecar is diagnostic: it is swept away at the next startup (along with
// stale `.compact` temp files), so it describes the damage found by the most
// recent recovery only. Writing it is best-effort; rewriting the log itself
// is not — a rewrite failure degrades the journal rather than replaying
// records that were supposed to be quarantined.

// quarantineEntry is one rejected journal line and why it was rejected.
type quarantineEntry struct {
	line   []byte
	reason string
}

// scanResult is the outcome of a full-journal integrity scan.
type scanResult struct {
	// jobs holds the replayed jobs in first-submission order, each request
	// holding its text: the jobs of one program share one string. A record
	// naming a claim gives its job the claim's request, when it is the job's
	// submit, and a copy of the claim's result carrying the job's id.
	jobs []*journalJob
	// held holds the ids of the intact program and claim records.
	held map[string]struct{}
	// keep is the clean log image: every valid line, original bytes, in
	// order. Byte-identical to the input minus quarantined lines and the
	// torn tail.
	keep []byte
	// quarantined holds the rejected lines.
	quarantined []quarantineEntry
	// tornBytes counts trailing bytes dropped as a torn final line.
	tornBytes int
	// records counts the job records kept, finished the jobs with a finish
	// record among them.
	records, finished int
	// maxID is the highest N among the job-N ids of the lines that parsed,
	// reservations included (those are in keep but belong to no job).
	maxID int64
}

// damaged counts the lines the scan could not read: the quarantined ones and
// a torn tail.
func (r *scanResult) damaged() int {
	n := len(r.quarantined)
	if r.tornBytes > 0 {
		n++
	}
	return n
}

// idFloor is the id no job of the scanned log was issued above: the greater
// of the highest reservation and the highest id seen, plus one block for
// every line that could not be read — any of them may have been a
// reservation, and a reservation raises the mark by exactly reserveBlock.
func (r *scanResult) idFloor() int64 {
	return r.maxID + int64(r.damaged())*reserveBlock
}

// repaired is the image a damaged log is replaced by: the valid lines, then a
// reservation at idFloor — once the damaged lines are gone, nothing else says
// that ids may have been issued under them.
func (r *scanResult) repaired() []byte {
	return append(r.keep[:len(r.keep):len(r.keep)], reservationLine(r.idFloor())...)
}

// scanJournal classifies every line of a journal image and folds each job
// record it keeps into its job. The first record carrying a request is the
// job's submit — a submitted record, or a clean hit's one finish record — and
// a record of an unknown id is kept only when it carries one. Finish records
// are last-wins: a job re-executed after a crash may legitimately append a
// second one, and determinism makes them interchangeable. Pure function: no
// I/O, no mutation of raw.
func scanJournal(raw []byte) scanResult {
	res := scanResult{held: map[string]struct{}{}}
	var keep bytes.Buffer
	byID := map[string]*journalJob{}
	progs := map[string]string{}          // program id -> text, from intact program records
	claims := map[string]*journalRecord{} // claim id -> intact claim record, its text resolved
	rest := raw
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// No newline before EOF: torn final line (crash mid-write).
			res.tornBytes = len(rest)
			break
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		quarantine := func(reason string) {
			res.quarantined = append(res.quarantined, quarantineEntry{line: line, reason: reason})
		}
		if len(bytes.TrimSpace(line)) == 0 {
			keep.Write(line)
			keep.WriteByte('\n')
			continue
		}
		if len(line) > maxJournalRecord {
			quarantine(fmt.Sprintf("record too large (%d bytes, max %d)", len(line), maxJournalRecord))
			continue
		}
		payload, err := unframeLine(line)
		if err != nil {
			quarantine(err.Error())
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			quarantine(fmt.Sprintf("invalid JSON: %v", err))
			continue
		}
		if rec.ID == "" {
			quarantine("record without job id")
			continue
		}
		n, numeric := numericID(rec.ID)
		res.maxID = max(res.maxID, n)
		switch rec.Type {
		case recReserved:
			if !numeric {
				quarantine(fmt.Sprintf("reservation %q is not a job-N id", rec.ID))
				continue
			}
		case recProgram:
			if programID(rec.Text) != rec.ID {
				quarantine(fmt.Sprintf("program text does not match its id %s", rec.ID))
				continue
			}
			progs[rec.ID] = rec.Text
			res.held[rec.ID] = struct{}{}
		case recClaim:
			switch {
			case rec.Req == nil || rec.Result == nil:
				quarantine("claim record without request or result")
				continue
			case claimID(blankClaimID(payload, rec.ID)) != rec.ID:
				quarantine(fmt.Sprintf("claim body does not match its id %s", rec.ID))
				continue
			}
			if reason := resolveText(&rec, progs); reason != "" {
				quarantine(reason)
				continue
			}
			claims[rec.ID] = &rec
			res.held[rec.ID] = struct{}{}
		case recSubmitted, recCompleted, recFailed:
			if rec.Claim != "" {
				c, ok := claims[rec.Claim]
				switch {
				case rec.Type != recCompleted || rec.Req != nil || rec.Result != nil || rec.Src != "":
					quarantine(rec.Type + " record naming a claim is no completed record, or carries a request or a result")
					continue
				case !ok:
					quarantine(fmt.Sprintf("completed record names unknown claim %s (its claim record is missing or damaged)", rec.Claim))
					continue
				}
				result := *c.Result
				result.JobID = rec.ID
				rec.Src, rec.Req, rec.Result = c.Src, c.Req, &result
			}
			jj := byID[rec.ID]
			finish := rec.Type != recSubmitted
			if finish && jj != nil {
				rec.Req, rec.Src = nil, "" // a clean hit's request: the first submit wins
			}
			switch {
			case !finish && rec.Req == nil:
				quarantine("submitted record without request")
				continue
			case rec.Req == nil && jj == nil:
				quarantine(fmt.Sprintf("finish record for unknown job %s (its submitted record is missing or damaged)", rec.ID))
				continue
			case rec.Type == recCompleted && rec.Result == nil:
				quarantine("completed record without result")
				continue
			}
			if rec.Req != nil && rec.Claim == "" { // a claim's text is resolved already
				if reason := resolveText(&rec, progs); reason != "" {
					quarantine(reason)
					continue
				}
			}
			if jj == nil {
				jj = &journalJob{id: rec.ID, req: *rec.Req}
				byID[rec.ID] = jj
				res.jobs = append(res.jobs, jj)
			}
			if finish && !jj.done {
				jj.done = true
				res.finished++
			}
			switch rec.Type {
			case recCompleted:
				jj.result, jj.errMsg, jj.errKind = rec.Result, "", ""
			case recFailed:
				jj.result, jj.errMsg, jj.errKind = nil, rec.Error, rec.Kind
			}
			res.records++
		default:
			quarantine(fmt.Sprintf("unknown record type %q", rec.Type))
			continue
		}
		keep.Write(line)
		keep.WriteByte('\n')
	}
	res.keep = keep.Bytes()
	return res
}

// resolveText gives a record carrying a request its text: the program record
// rec.Src names, or, without src, the text the request carries (the inline
// format). It returns why the record is quarantined instead, or "".
func resolveText(rec *journalRecord, progs map[string]string) string {
	switch text, ok := progs[rec.Src]; {
	case rec.Src == "":
	case rec.Req.Source != "":
		return rec.Type + " record with both a program and an inline text"
	case !ok:
		return fmt.Sprintf("%s record names unknown program %s (its program record is missing or damaged)", rec.Type, rec.Src)
	default:
		rec.Req.Source = text
	}
	return ""
}

// blankClaimID returns payload, a claim record's JSON text, with the value
// of its id field, id, left empty: the bytes claimID hashes. A text that does
// not spell the field as the journal writes it ("id":"claim-…", no space)
// comes back whole, and does not hash to its id.
func blankClaimID(payload []byte, id string) []byte {
	field := `"id":"` + id + `"`
	i := bytes.Index(payload, []byte(field))
	if i < 0 {
		return payload
	}
	i += len(`"id":"`)
	return append(payload[:i:i], payload[i+len(id):]...)
}

// quarantineClip bounds one sidecar line: the sidecar is a diagnostic, not an
// archive, so an absurdly long damaged line is clipped rather than copied.
const quarantineClip = 4096

// writeQuarantine writes the quarantine sidecar for path: per rejected line,
// a `# reason` header then the (clipped) line itself. Best-effort by
// contract — the caller ignores the returned error for recovery purposes.
func writeQuarantine(fsys vfs.FS, path string, entries []quarantineEntry) error {
	f, err := fsys.OpenFile(path+".quarantine", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, e := range entries {
		fmt.Fprintf(&buf, "# %s\n", e.reason)
		line := e.line
		if len(line) > quarantineClip {
			fmt.Fprintf(&buf, "%s... [clipped, %d bytes total]\n", line[:quarantineClip], len(line))
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rewriteLog atomically replaces the journal at path with the clean image,
// through the `.compact` temp file the startup sweep removes.
func rewriteLog(fsys vfs.FS, path string, clean []byte) error {
	if err := vfs.ReplaceFile(fsys, path+".compact", path, clean); err != nil {
		return fmt.Errorf("journal: scrub rewrite: %w", err)
	}
	return nil
}

// ScrubReport summarizes an offline journal scrub (detserve -scrub /
// -verify-journal).
type ScrubReport struct {
	// Records is the number of replayable job records.
	Records int `json:"records"`
	// Jobs is the number of distinct jobs; Finished how many of them have a
	// durable finish record.
	Jobs     int `json:"jobs"`
	Finished int `json:"finished"`
	// Quarantined is the number of damaged lines found.
	Quarantined int `json:"quarantined"`
	// TornBytes is the length of the torn final line, if any.
	TornBytes int `json:"torn_bytes,omitempty"`
	// Rewritten reports whether the log was rewritten (apply mode with
	// damage present).
	Rewritten bool `json:"rewritten"`
	// QuarantinePath is the sidecar path when damage was quarantined.
	QuarantinePath string `json:"quarantine_path,omitempty"`
}

// ScrubJournal scans the journal at path for integrity damage. With apply
// set, damaged lines are quarantined to the sidecar and the log is rewritten
// without them (plus torn-tail removal); without it, the scan is read-only —
// the -verify-journal mode. A missing journal is an empty, healthy one.
func ScrubJournal(fsys vfs.FS, path string, apply bool) (ScrubReport, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	raw, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ScrubReport{}, nil
		}
		return ScrubReport{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	res := scanJournal(raw)
	rep := ScrubReport{
		Records:     res.records,
		Jobs:        len(res.jobs),
		Finished:    res.finished,
		Quarantined: len(res.quarantined),
		TornBytes:   res.tornBytes,
	}
	if !apply || res.damaged() == 0 {
		return rep, nil
	}
	if len(res.quarantined) > 0 {
		if err := writeQuarantine(fsys, path, res.quarantined); err == nil {
			rep.QuarantinePath = path + ".quarantine"
		}
	}
	if err := rewriteLog(fsys, path, res.repaired()); err != nil {
		return rep, err
	}
	rep.Rewritten = true
	return rep, nil
}
