package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalInlineGolden is a journal written by the format in which every
// submitted record carries its program's text inline. Logs and shipped files
// of that format must keep replaying: a submitted record without a program
// reference still replays its own text.
//
// The file is never regenerated from the code under test. It was written at
// 52cc350, the last commit whose journal wrote that format. To write it
// again, check that commit out, copy this file there, and run
//
//	JOURNAL_INLINE_OUT=$PWD/internal/service/testdata/journal_inline.golden go test -run TestJournalInlineFormat ./internal/service/
//
// which writes the file instead of replaying it. There openJournal also takes
// a compaction threshold after fsyncEvery (pass 4096) and snapshotRecords
// returns no error.
const journalInlineGolden = "testdata/journal_inline.golden"

// inlinePrograms are the golden log's two texts. Both hold what the JSON
// string escape rewrites: quotes, backslashes, tabs, newlines, HTML
// characters and non-ASCII.
var inlinePrograms = [2]string{
	"\nmodule alpha\n\nfunc main() regs 2 {\nentry:\n  r0 = tid\n  ret r0\n}\n; \"quoted\" <a> & \\ \t é\n",
	"\nmodule beta\n\nfunc main() regs 1 {\nentry:\n  r0 = 7\n  ret r0\n}\n; ∀ threads: r0 < 8\n",
}

// inlineJob is one job of the golden log: its request and its finish record
// (none for the job the log leaves unfinished).
type inlineJob struct {
	id      string
	req     Request
	result  *Result
	errMsg  string
	errKind string
}

func inlineJobs() []inlineJob {
	a, b := inlinePrograms[0], inlinePrograms[1]
	return []inlineJob{
		{id: "job-1", req: Request{Source: a, Entry: "main", Threads: 4, Preset: "all"},
			result: &Result{JobID: "job-1", ScheduleHash: "00000000000000a1", ScheduleLen: 12, Cycles: 345, WaitCycles: 6, Acquisitions: 7, ClockUpdates: 8}},
		{id: "job-2", req: Request{Source: b, Entry: "main", Threads: 2, Preset: "O2", PerturbSeed: 9},
			errMsg: "deadlock: wait-for cycle t0 -> t1 -> t0", errKind: "deadlock"},
		{id: "job-3", req: Request{Source: a, Entry: "main", Threads: 8, Baseline: true, DeadlineMS: 50}},
		{id: "job-4", req: Request{Source: b, Entry: "main", Threads: 4, Preset: "all", Race: true, Artifacts: Artifacts{Stats: true}},
			result: &Result{JobID: "job-4", Cached: true, ScheduleHash: "00000000000000b4", ScheduleLen: 3, Cycles: 90, Clockable: []string{"main"}}},
	}
}

// TestJournalInlineFormat replays the golden inline-format log: every job
// comes back with its id, its full request and its finish record, the scan
// finds no damage, and the journal's snapshot image replays to the same
// jobs.
func TestJournalInlineFormat(t *testing.T) {
	want := inlineJobs()
	if out := os.Getenv("JOURNAL_INLINE_OUT"); out != "" {
		os.Remove(out)
		jn, _, err := openJournal(nil, out, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range want {
			if err := jn.appendSubmitted(j.id, &j.req, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range want {
			if j.result != nil || j.errMsg != "" {
				if err := jn.appendFinished(j.id, j.result, j.errMsg, j.errKind); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := jn.close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
		return
	}

	raw, err := os.ReadFile(journalInlineGolden)
	if err != nil {
		t.Fatal(err)
	}
	if scan := scanJournal(raw); scan.damaged() != 0 || len(scan.jobs) != len(want) || scan.finished != 3 || scan.maxID != reserveBlock {
		t.Fatalf("scan: %d damaged, %d jobs, %d finished, max id %d", scan.damaged(), len(scan.jobs), scan.finished, scan.maxID)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, jobs, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	check := func(what string, jobs []*journalJob) {
		t.Helper()
		if len(jobs) != len(want) {
			t.Fatalf("%s: %d jobs, want %d", what, len(jobs), len(want))
		}
		for i, w := range want {
			got := jobs[i]
			if got.id != w.id || !reflect.DeepEqual(got.req, w.req) {
				t.Fatalf("%s: job %d = %s %+v, want %s %+v", what, i, got.id, got.req, w.id, w.req)
			}
			done := w.result != nil || w.errMsg != ""
			if got.done != done || !reflect.DeepEqual(got.result, w.result) || got.errMsg != w.errMsg || got.errKind != w.errKind {
				t.Fatalf("%s: %s finish = done %v %+v %q %q, want done %v %+v %q %q", what, w.id,
					got.done, got.result, got.errMsg, got.errKind, done, w.result, w.errMsg, w.errKind)
			}
		}
	}
	check("replay", jobs)
	if jn.reserved != reserveBlock {
		t.Fatalf("id floor after replay = %d, want %d", jn.reserved, reserveBlock)
	}

	// The snapshot a peer gets of this log replays to the same jobs.
	image := filepath.Join(t.TempDir(), "image.journal")
	lines, err := jn.snapshotRecords()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(image, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	rj, rejobs, err := openJournal(nil, image, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.close()
	check("snapshot image", rejobs)
}
