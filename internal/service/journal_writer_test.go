package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/diag"
	"repro/internal/trace"
)

// journalWriterGolden is what the journal writes for one fixed sequence of
// appends, every string in it holding each character class encoding/json
// escapes or replaces, followed by a rewrite's closing reservation line.
//
// The file is never regenerated from the code under test. It was written at
// b29e1af, the last commit whose journal encoded its records with
// json.Encoder, so it pins encoding/json's bytes. To write it again, check
// that commit out, copy this file there, and run
//
//	JOURNAL_WRITER_OUT=$PWD/internal/service/testdata/journal_writer.golden go test -run TestJournalWriterBytes ./internal/service/
//
// which writes the file instead of comparing with it.
const journalWriterGolden = "testdata/journal_writer.golden"

// awkward holds a quote, a backslash, the three HTML characters, the short
// escapes, other control bytes, U+2028 and U+2029, a two-byte rune, DEL and
// a byte that is not UTF-8.
const awkward = "\"q\" \\ <a> & \t\n\b\f\r \x00\x1f\x7f \u2028\u2029 é \xff!"

// writeJournalSequence appends the golden's records to a fresh journal at
// path and returns the log it leaves, with reservationLine's bytes behind it.
func writeJournalSequence(t *testing.T, path string) []byte {
	t.Helper()
	jn, _, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	progA := "module a\n; " + awkward + "\n"
	progB := "module b\n; " + awkward + " again\n"
	full := Request{Source: progB, Entry: "main" + awkward, Threads: 8, Preset: "O2<&>", Baseline: true,
		PerturbSeed: -7, Race: true, DeadlineMS: 1500, Artifacts: Artifacts{Schedule: true, Stats: true, OverheadRow: true}}
	sched := trace.New()
	sched.Record(0, 1, 40)
	worker := &Result{JobID: "job-1", SelfChecked: true, PeerFilled: true, Remote: true, ScheduleHash: "00000000000000a1",
		ScheduleLen: 12, Cycles: -345, WaitCycles: 6, Acquisitions: 7, ClockUpdates: 1 << 40, Clockable: []string{},
		Schedule: sched, Stage: StageLatency{ParseNS: 1, InstrumentNS: 2, SimulateNS: 3, OverheadNS: 4}}
	hit := &Result{JobID: "job-3", Cached: true, InstrCached: true, ScheduleHash: "00000000000000b4", ScheduleLen: 3,
		Cycles: 90, Clockable: []string{"main", "worker" + awkward, ""}}
	for _, step := range []struct {
		rec     journalRecord
		req     *Request
		durable bool
	}{
		{journalRecord{Type: recSubmitted, ID: "job-1"}, &Request{Source: progA}, true},
		{journalRecord{Type: recSubmitted, ID: "job-2"}, &full, true},
		{finishRecord("job-3", hit, nil), &Request{Source: progA, Artifacts: Artifacts{Stats: true}}, false},
		{finishRecord("job-1", worker, nil), nil, false},
		{finishRecord("job-2", nil, fmt.Errorf("%w: %s", diag.ErrDeadlock, awkward)), nil, false},
		{journalRecord{Type: recSubmitted, ID: "job-1025"}, &Request{Source: progB, Threads: -3}, true},
	} {
		if err := jn.appendJob(step.rec, step.req, step.durable); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, reservationLine(3*reserveBlock)...)
}

// TestJournalWriterBytes: the journal writes encoding/json's bytes, framed,
// for every kind of record it appends.
func TestJournalWriterBytes(t *testing.T) {
	if out := os.Getenv("JOURNAL_WRITER_OUT"); out != "" {
		if err := os.WriteFile(out, writeJournalSequence(t, filepath.Join(t.TempDir(), "jobs.journal")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
		return
	}
	want, err := os.ReadFile(journalWriterGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := writeJournalSequence(t, filepath.Join(t.TempDir(), "jobs.journal"))
	gotLines, wantLines := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
}
