package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recLine marshals a journal record and wraps it in a CRC frame — the exact
// bytes the journal writes.
func recLine(t *testing.T, rec *journalRecord) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal record: %v", err)
	}
	return frameLine(b)
}

// imageRecords parses every line of a journal image the journal wrote.
func imageRecords(t *testing.T, raw []byte) []journalRecord {
	t.Helper()
	var recs []journalRecord
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		payload, err := unframeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// splitPrograms checks that an image holds each program record once, ahead
// of every submitted record that names it, and returns the job records and
// the number of program records.
func splitPrograms(t *testing.T, recs []journalRecord) (jobRecs []journalRecord, programs int) {
	t.Helper()
	seen := map[string]bool{}
	for _, rec := range recs {
		switch {
		case rec.Type == recProgram && seen[rec.ID]:
			t.Fatalf("program %s written twice", rec.ID)
		case rec.Type == recProgram:
			seen[rec.ID] = true
			programs++
		case rec.Type == recSubmitted && !seen[rec.Src]:
			t.Fatalf("%s names program %q ahead of its record", rec.ID, rec.Src)
		default:
			jobRecs = append(jobRecs, rec)
		}
	}
	return jobRecs, programs
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"type":"submitted","id":"x","req":{"source":"module m"}}`)
	line := frameLine(payload)
	if line[len(line)-1] != '\n' {
		t.Fatal("framed line missing trailing newline")
	}
	got, err := unframeLine(line[:len(line)-1])
	if err != nil {
		t.Fatalf("unframe: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %q, want %q", got, payload)
	}
}

// TestFrameRejectsUnframed: a bare-JSON line is not a record. The journal
// only ever writes frames, so bytes without one cannot be verified and are
// never replayed, however well they parse.
func TestFrameRejectsUnframed(t *testing.T) {
	if got, err := unframeLine([]byte(`{"type":"submitted","id":"x"}`)); err == nil {
		t.Fatalf("unframed line accepted as payload %q", got)
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	payload := []byte(`{"type":"submitted","id":"x"}`)
	good := frameLine(payload)
	cases := map[string][]byte{
		"flipped payload byte": append(append([]byte(nil), good[:len(good)-3]...), good[len(good)-3]^0x01, good[len(good)-2], '\n'),
		"bad magic":            []byte("#c9 00000000 2 {}"),
		"junk":                 []byte("!!noise!!"),
		"short checksum":       []byte("#c1 abcd 2 {}"),
		"length mismatch":      []byte("#c1 00000000 99 {}"),
		// Sscanf took a number's prefix for the number: "+2" and "2x" were 2.
		"signed length":   []byte(fmt.Sprintf("#c1 %08x +2 {}", checksum([]byte("{}")))),
		"trailing length": []byte(fmt.Sprintf("#c1 %08x 2x {}", checksum([]byte("{}")))),
	}
	for name, line := range cases {
		line = bytes.TrimSuffix(line, []byte("\n"))
		if _, err := unframeLine(line); err == nil {
			t.Errorf("%s: unframe accepted damaged line %q", name, line)
		}
	}
}

// TestJournalInteriorCorruptionRecovery is the satellite table test: damage in
// the *middle* of the log quarantines exactly the damaged records and replays
// everything else — no suffix truncation, no silent acceptance.
func TestJournalInteriorCorruptionRecovery(t *testing.T) {
	req := Request{Source: "module m"}
	sub := func(id string) []byte {
		return recLine(t, &journalRecord{Type: recSubmitted, ID: id, Req: &req})
	}
	fin := func(id string) []byte {
		return recLine(t, &journalRecord{Type: recCompleted, ID: id, Result: &Result{ScheduleHash: "aa"}})
	}
	// Program records: use names req's text by its program id; forged holds
	// another text under that id.
	pid := programID(req.Source)
	prog := recLine(t, &journalRecord{Type: recProgram, ID: pid, Text: req.Source})
	forged := recLine(t, &journalRecord{Type: recProgram, ID: pid, Text: "module n"})
	use := func(id string) []byte {
		return recLine(t, &journalRecord{Type: recSubmitted, ID: id, Src: pid, Req: &Request{}})
	}
	// flip damages one interior byte of line (past the frame magic) so the
	// CRC check, not the JSON parser, is what must catch it.
	flip := func(line []byte) []byte {
		out := append([]byte(nil), line...)
		out[len(out)/2] ^= 0x01
		return out
	}

	cases := []struct {
		name        string
		image       [][]byte
		wantJobs    []string
		wantQuar    int
		wantFinish  map[string]bool
		wantTornFix bool
	}{
		{
			name:     "bit-flipped middle record",
			image:    [][]byte{sub("a"), flip(sub("b")), sub("c"), fin("a")},
			wantJobs: []string{"a", "c"},
			wantQuar: 1,
		},
		{
			name:     "duplicated record is tolerated",
			image:    [][]byte{sub("a"), sub("b"), sub("b"), fin("a")},
			wantJobs: []string{"a", "b"},
			wantQuar: 0,
		},
		{
			name: "checksum-valid but foreign record",
			// A correctly framed line whose payload is valid JSON of a type
			// this journal never wrote: integrity passes, semantics reject.
			image:    [][]byte{sub("a"), frameLine([]byte(`{"type":"frobnicated","id":"zz"}`)), sub("b")},
			wantJobs: []string{"a", "b"},
			wantQuar: 1,
		},
		{
			name:     "junk line between records",
			image:    [][]byte{sub("a"), []byte("!!nemesis junk!!\n"), sub("b")},
			wantJobs: []string{"a", "b"},
			wantQuar: 1,
		},
		{
			name: "ghost finish quarantined with its missing submit",
			// b's submit is damaged, so its finish is a ghost: both lines
			// quarantine, and only a survives.
			image:    [][]byte{sub("a"), flip(sub("b")), fin("b")},
			wantJobs: []string{"a"},
			wantQuar: 2,
		},
		{
			name: "unframed record in the interior is quarantined",
			// Bare JSON that would parse as job b: without a frame it cannot
			// be verified, so it goes to the sidecar like any other damage.
			image:    [][]byte{sub("a"), []byte(`{"type":"submitted","id":"b","req":{"source":"module m"}}` + "\n"), sub("c")},
			wantJobs: []string{"a", "c"},
			wantQuar: 1,
		},
		{
			name:        "unframed record as the last line is a torn tail",
			image:       [][]byte{sub("a"), sub("b"), []byte(`{"type":"submitted","id":"c","req":{"source":"module m"}}`)},
			wantJobs:    []string{"a", "b"},
			wantQuar:    0,
			wantTornFix: true,
		},
		{
			name:     "program record ahead of its users, inline text beside them",
			image:    [][]byte{prog, use("a"), sub("b"), use("c")},
			wantJobs: []string{"a", "b", "c"},
		},
		{
			name:     "program written twice is tolerated",
			image:    [][]byte{prog, use("a"), prog, use("b")},
			wantJobs: []string{"a", "b"},
		},
		{
			name: "damaged program quarantined with every user",
			// One bad program line costs that program's jobs, not the log's.
			image:    [][]byte{flip(prog), use("a"), sub("b"), use("c")},
			wantJobs: []string{"b"},
			wantQuar: 3,
		},
		{
			name:     "program whose text is not its id",
			image:    [][]byte{forged, use("a"), sub("b")},
			wantJobs: []string{"b"},
			wantQuar: 2,
		},
		{
			name:     "user ahead of its program",
			image:    [][]byte{use("a"), prog, use("b")},
			wantJobs: []string{"b"},
			wantQuar: 1,
		},
		{
			name:     "program reference and inline text in one record",
			image:    [][]byte{prog, recLine(t, &journalRecord{Type: recSubmitted, ID: "a", Src: pid, Req: &req}), use("b")},
			wantJobs: []string{"b"},
			wantQuar: 1,
		},
		{
			name:        "torn tail truncated without quarantine",
			image:       [][]byte{sub("a"), sub("b"), fin("a")[:10]},
			wantJobs:    []string{"a", "b"},
			wantQuar:    0,
			wantTornFix: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.journal")
			if err := os.WriteFile(path, bytes.Join(tc.image, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			jn, jobs, err := openJournal(nil, path, 1, nil)
			if err != nil {
				t.Fatalf("openJournal: %v", err)
			}
			var ids []string
			for _, jj := range jobs {
				ids = append(ids, jj.id)
				if jj.req.Source != req.Source {
					t.Fatalf("%s replayed text %q, want %q", jj.id, jj.req.Source, req.Source)
				}
			}
			if strings.Join(ids, ",") != strings.Join(tc.wantJobs, ",") {
				t.Fatalf("recovered jobs %v, want %v", ids, tc.wantJobs)
			}
			if jn.quarantined != tc.wantQuar {
				t.Fatalf("quarantined %d lines, want %d", jn.quarantined, tc.wantQuar)
			}
			if err := jn.close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			sidecar := path + ".quarantine"
			if tc.wantQuar > 0 {
				raw, err := os.ReadFile(sidecar)
				if err != nil {
					t.Fatalf("quarantine sidecar: %v", err)
				}
				if !bytes.Contains(raw, []byte("# ")) {
					t.Fatal("sidecar has no reason headers")
				}
			} else if _, err := os.Stat(sidecar); err == nil {
				t.Fatal("sidecar written with nothing quarantined")
			}

			// The rewritten (or truncated) log must replay clean on the next
			// boot, and the boot sweep must remove the sidecar.
			jn2, jobs2, err := openJournal(nil, path, 1, nil)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if jn2.quarantined != 0 {
				t.Fatalf("reopen quarantined %d lines from a scrubbed log", jn2.quarantined)
			}
			if len(jobs2) != len(tc.wantJobs) {
				t.Fatalf("reopen recovered %d jobs, want %d", len(jobs2), len(tc.wantJobs))
			}
			if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
				t.Fatal("startup sweep left the stale quarantine sidecar")
			}
			jn2.close()
		})
	}
}

// TestScanOneRecordHits: a clean hit is journaled as one finish record that
// carries its request. The scanner admits it as its job's submit and finish,
// resolving its program like a submitted record's; for an id already
// submitted the request is ignored and the finish applies; a finish record
// without a request is still a ghost when its id is new.
func TestScanOneRecordHits(t *testing.T) {
	text := "module m"
	pid := programID(text)
	prog := recLine(t, &journalRecord{Type: recProgram, ID: pid, Text: text})
	sub := recLine(t, &journalRecord{Type: recSubmitted, ID: "job-1", Src: pid, Req: &Request{Threads: 4}})
	hit := func(src string, req Request) []byte {
		return recLine(t, &journalRecord{Type: recCompleted, ID: "job-1", Src: src, Req: &req, Result: &Result{ScheduleHash: "aa"}})
	}
	cases := []struct {
		name     string
		image    [][]byte
		wantQuar int
		want     *journalJob // the replayed job-1, nil when it is not there
	}{
		{
			name:  "one-record completed",
			image: [][]byte{prog, hit(pid, Request{Threads: 8})},
			want:  &journalJob{req: Request{Source: text, Threads: 8}, done: true, result: &Result{ScheduleHash: "aa"}},
		},
		{
			name: "one-record failed",
			image: [][]byte{prog, recLine(t, &journalRecord{Type: recFailed, ID: "job-1", Src: pid, Req: &Request{Threads: 8},
				Error: "deadlock: wait-for cycle", Kind: "deadlock"})},
			want: &journalJob{req: Request{Source: text, Threads: 8}, done: true, errMsg: "deadlock: wait-for cycle", errKind: "deadlock"},
		},
		{
			name:     "one-record job naming an unknown program",
			image:    [][]byte{hit(pid, Request{Threads: 8})},
			wantQuar: 1,
		},
		{
			name:     "one-record job with a program and an inline text",
			image:    [][]byte{prog, hit(pid, Request{Source: text, Threads: 8})},
			wantQuar: 1,
		},
		{
			name:  "finish carrying a request after its submit",
			image: [][]byte{prog, sub, hit(programID("module n"), Request{Threads: 8})},
			want:  &journalJob{req: Request{Source: text, Threads: 4}, done: true, result: &Result{ScheduleHash: "aa"}},
		},
		{
			name:     "finish without a request for an unseen id",
			image:    [][]byte{prog, recLine(t, &journalRecord{Type: recCompleted, ID: "job-1", Result: &Result{ScheduleHash: "aa"}})},
			wantQuar: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := bytes.Join(tc.image, nil)
			scan := scanJournal(raw)
			jobs, finished := 0, 0
			if tc.want != nil {
				jobs, finished = 1, 1
			}
			if len(scan.quarantined) != tc.wantQuar || len(scan.jobs) != jobs || scan.finished != finished {
				t.Fatalf("scan: %d quarantined %+v, %d jobs, %d finished; want %d, %d, %d",
					len(scan.quarantined), scan.quarantined, len(scan.jobs), scan.finished, tc.wantQuar, jobs, finished)
			}
			path := filepath.Join(t.TempDir(), "jobs.journal")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			jn, replayed, err := openJournal(nil, path, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer jn.close()
			if tc.want == nil {
				if len(replayed) != 0 {
					t.Fatalf("replayed %+v, want nothing", replayed[0])
				}
				return
			}
			tc.want.id = "job-1"
			if len(replayed) != 1 || !reflect.DeepEqual(replayed[0], tc.want) {
				t.Fatalf("replayed %+v, want %+v", replayed, tc.want)
			}
		})
	}
}

// TestJournalStartupSweepsStaleCompact: a crash between compaction's temp
// write and rename leaves `.compact` behind; the next open removes it.
func TestJournalStartupSweepsStaleCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	stale := path + ".compact"
	if err := os.WriteFile(stale, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, _, err := openJournal(nil, path, 1, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer jn.close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("startup sweep left the stale .compact file")
	}
}

func TestScrubJournalMissingFile(t *testing.T) {
	rep, err := ScrubJournal(nil, filepath.Join(t.TempDir(), "absent.journal"), true)
	if err != nil {
		t.Fatalf("ScrubJournal on missing file: %v", err)
	}
	if rep != (ScrubReport{}) {
		t.Fatalf("missing journal reported %+v, want zero report", rep)
	}
}

func TestScrubJournalVerifyAndApply(t *testing.T) {
	req := Request{Source: "module m"}
	good := recLine(t, &journalRecord{Type: recSubmitted, ID: "a", Req: &req})
	bad := append([]byte(nil), recLine(t, &journalRecord{Type: recSubmitted, ID: "b", Req: &req})...)
	bad[len(bad)/2] ^= 0x01
	image := bytes.Join([][]byte{good, bad, []byte("torn-tai")}, nil)

	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	// Verify mode: full report, zero side effects.
	rep, err := ScrubJournal(nil, path, false)
	if err != nil {
		t.Fatalf("verify scrub: %v", err)
	}
	if rep.Records != 1 || rep.Jobs != 1 || rep.Quarantined != 1 || rep.TornBytes != len("torn-tai") || rep.Rewritten {
		t.Fatalf("verify report %+v", rep)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, image) {
		t.Fatal("verify mode modified the journal")
	}
	if _, err := os.Stat(path + ".quarantine"); err == nil {
		t.Fatal("verify mode wrote a quarantine sidecar")
	}

	// Apply mode: quarantine + rewrite, and a second scrub comes back clean.
	rep, err = ScrubJournal(nil, path, true)
	if err != nil {
		t.Fatalf("apply scrub: %v", err)
	}
	if !rep.Rewritten || rep.QuarantinePath != path+".quarantine" {
		t.Fatalf("apply report %+v", rep)
	}
	if _, err := os.Stat(rep.QuarantinePath); err != nil {
		t.Fatalf("sidecar missing after apply: %v", err)
	}
	rep, err = ScrubJournal(nil, path, true)
	if err != nil {
		t.Fatalf("re-scrub: %v", err)
	}
	if rep.Quarantined != 0 || rep.TornBytes != 0 || rep.Rewritten {
		t.Fatalf("scrubbed log still dirty: %+v", rep)
	}
	// Two lines could not be read, and either may have been a reservation:
	// the repaired log says so in their place.
	clean, _ := os.ReadFile(path)
	if want := append(append([]byte(nil), good...), reservationLine(2*reserveBlock)...); !bytes.Equal(clean, want) {
		t.Fatalf("clean log = %q, want the intact record and a reservation of two blocks", clean)
	}
}

// TestUnframedLineIsDamage pins the acceptance wording end to end: a bare-JSON
// line in the interior of a journal is reported by the read-only scan
// (-verify-journal), lands in the quarantine sidecar on recovery with
// journal_quarantined incremented, and the same line as an unterminated last
// line is truncated as a torn tail — in neither position is it replayed.
func TestUnframedLineIsDamage(t *testing.T) {
	req := Request{Source: "module m"}
	sub := func(id string) []byte { return recLine(t, &journalRecord{Type: recSubmitted, ID: id, Req: &req}) }
	bare := `{"type":"submitted","id":"bare","req":{"source":"module m"}}`
	image := bytes.Join([][]byte{sub("a"), []byte(bare + "\n"), sub("b"), []byte(bare)}, nil)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubJournal(nil, path, false)
	if err != nil {
		t.Fatalf("verify scrub: %v", err)
	}
	if rep.Records != 2 || rep.Quarantined != 1 || rep.TornBytes != len(bare) {
		t.Fatalf("verify report %+v, want 2 records, 1 quarantined, %d torn bytes", rep, len(bare))
	}

	svc, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close(context.Background())
	snap := svc.Snapshot()
	if snap.JournalQuarantined != 1 || snap.RecoveredJobs != 2 {
		t.Fatalf("journal_quarantined %d, recovered_jobs %d, want 1 and 2", snap.JournalQuarantined, snap.RecoveredJobs)
	}
	if _, err := svc.Lookup("bare"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("the unframed record was replayed: Lookup = %v", err)
	}
	side, err := os.ReadFile(path + ".quarantine")
	if err != nil || !bytes.Contains(side, []byte(bare)) {
		t.Fatalf("quarantine sidecar does not hold the unframed line (err %v): %q", err, side)
	}
	if log, _ := os.ReadFile(path); bytes.Contains(log, []byte(`"id":"bare"`)) {
		t.Fatalf("the unframed line survived recovery in the log: %q", log)
	}
}
