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
// counted, never silently — instead of the whole suffix.
//
// What quarantines: a failed CRC frame, unparseable JSON, an empty job id, an
// unknown record type, a submitted record with no request, a finish record
// for a job with no submitted record (a "ghost" — its submit was itself
// damaged), a completed record with no result, a reservation whose id is
// not a job-N, a program record whose text does not hash to its id, a
// submitted record naming a program no earlier intact program record holds
// (so one damaged program line costs that program's jobs), and one that
// both names a program and carries a text. A finish record that carries a
// request — a clean hit's one record — is its job's submit when the id is
// new, its request read by the submitted record's rules, and a plain finish
// record otherwise (the first submit wins). What does not: duplicate
// submitted, program and finish records are legitimate products of
// crash-recovery re-execution and of a shipped stream overlapping its
// snapshot, and replay handles them (first-submit-wins, last-finish-wins, a
// program id is its text); blank lines are kept; a torn final line (no
// trailing newline) is truncation damage, not corruption, and is dropped
// without quarantine exactly as before.
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
	// recs holds the replayable job records in log order, each submitted
	// record's request holding its text: the records of one program share
	// one string.
	recs []*journalRecord
	// keep is the clean log image: every valid line, original bytes, in
	// order. Byte-identical to the input minus quarantined lines and the
	// torn tail.
	keep []byte
	// quarantined holds the rejected lines.
	quarantined []quarantineEntry
	// tornBytes counts trailing bytes dropped as a torn final line.
	tornBytes int
	// jobs/finished count distinct jobs seen and how many have a finish.
	jobs, finished int
	// maxID is the highest N among the job-N ids of the lines that parsed,
	// reservations included (those are in keep, not in recs: they belong to
	// no job).
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

// scanJournal classifies every line of a journal image. Pure function: no
// I/O, no mutation of raw.
func scanJournal(raw []byte) scanResult {
	var res scanResult
	var keep bytes.Buffer
	seen := map[string]bool{}    // id -> submitted record seen
	done := map[string]bool{}    // id -> finish record seen
	progs := map[string]string{} // program id -> text, from intact program records
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
			keep.Write(line)
			keep.WriteByte('\n')
			continue
		case recProgram:
			if programID(rec.Text) != rec.ID {
				quarantine(fmt.Sprintf("program text does not match its id %s", rec.ID))
				continue
			}
			progs[rec.ID] = rec.Text
			keep.Write(line)
			keep.WriteByte('\n')
			continue
		case recSubmitted, recCompleted, recFailed:
			finish := rec.Type != recSubmitted
			if finish && seen[rec.ID] {
				rec.Req, rec.Src = nil, "" // a clean hit's request: the first submit wins
			}
			switch {
			case !finish && rec.Req == nil:
				quarantine("submitted record without request")
				continue
			case rec.Req == nil && !seen[rec.ID]:
				quarantine(fmt.Sprintf("finish record for unknown job %s (its submitted record is missing or damaged)", rec.ID))
				continue
			case rec.Type == recCompleted && rec.Result == nil:
				quarantine("completed record without result")
				continue
			}
			if rec.Req != nil {
				switch text, ok := progs[rec.Src]; {
				case rec.Src == "": // the inline format: the record carries its text
				case rec.Req.Source != "":
					quarantine(rec.Type + " record with both a program and an inline text")
					continue
				case !ok:
					quarantine(fmt.Sprintf("%s record names unknown program %s (its program record is missing or damaged)", rec.Type, rec.Src))
					continue
				default:
					rec.Req.Source = text
				}
				if !seen[rec.ID] {
					seen[rec.ID] = true
					res.jobs++
				}
			}
			if finish && !done[rec.ID] {
				done[rec.ID] = true
				res.finished++
			}
		default:
			quarantine(fmt.Sprintf("unknown record type %q", rec.Type))
			continue
		}
		r := rec
		res.recs = append(res.recs, &r)
		keep.Write(line)
		keep.WriteByte('\n')
	}
	res.keep = keep.Bytes()
	return res
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
		Records:     len(res.recs),
		Jobs:        res.jobs,
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
