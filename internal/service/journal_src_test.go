package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalSrcGolden is a journal written by the format in which each program
// text is a program record, every job is a submitted record naming its text
// by "src" plus, when finished, a finish record — a clean Do hit included,
// whose two records sit side by side. Logs and shipped files of that format
// must keep replaying.
//
// The file is never regenerated from the code under test. It was written at
// 595a00b, the last commit whose journal wrote every job as a submitted
// record. To write it again, check that commit out, copy this file there, and
// run
//
//	JOURNAL_SRC_OUT=$PWD/internal/service/testdata/journal_src.golden go test -run TestJournalSrcFormat ./internal/service/
//
// which writes the file instead of replaying it. The test repeats
// TestJournalInlineFormat's checks rather than sharing them, so that this
// file alone is what the recipe copies (inlinePrograms and inlineJob exist at
// 595a00b). There openJournal also takes a compaction threshold after
// fsyncEvery (pass 4096) and snapshotRecords returns no error.
const journalSrcGolden = "testdata/journal_src.golden"

// srcJobs are the golden log's jobs: job-1 completed, job-2 failed, job-3
// unfinished, job-4 a clean hit through Do (submitted without a sync, then
// completed). The two texts are inlinePrograms.
func srcJobs() []inlineJob {
	a, b := inlinePrograms[0], inlinePrograms[1]
	return []inlineJob{
		{id: "job-1", req: Request{Source: a, Entry: "main", Threads: 4, Preset: "all"},
			result: &Result{JobID: "job-1", ScheduleHash: "00000000000000a1", ScheduleLen: 12, Cycles: 345, WaitCycles: 6, Acquisitions: 7, ClockUpdates: 8}},
		{id: "job-2", req: Request{Source: b, Entry: "main", Threads: 2, Preset: "O2", PerturbSeed: 9},
			errMsg: "deadlock: wait-for cycle t0 -> t1 -> t0", errKind: "deadlock"},
		{id: "job-3", req: Request{Source: a, Entry: "main", Threads: 8, Baseline: true, DeadlineMS: 50}},
		{id: "job-4", req: Request{Source: b, Entry: "main", Threads: 4, Preset: "all", Artifacts: Artifacts{Stats: true}},
			result: &Result{JobID: "job-4", Cached: true, InstrCached: true, ScheduleHash: "00000000000000b4", ScheduleLen: 3, Cycles: 90, Clockable: []string{"main"}}},
	}
}

// TestJournalSrcFormat replays the golden program-record log: every job comes
// back with its id, its full request (its text resolved from its program
// record) and its finish record, the scan finds no damage, and the journal's
// snapshot image replays to the same jobs.
func TestJournalSrcFormat(t *testing.T) {
	want := srcJobs()
	if out := os.Getenv("JOURNAL_SRC_OUT"); out != "" {
		os.Remove(out)
		jn, _, err := openJournal(nil, out, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range want[:3] {
			if err := jn.appendSubmitted(j.id, &j.req, true); err != nil {
				t.Fatal(err)
			}
		}
		hit := want[3]
		if err := jn.appendSubmitted(hit.id, &hit.req, false); err != nil {
			t.Fatal(err)
		}
		for _, j := range []inlineJob{hit, want[0], want[1]} {
			if err := jn.appendFinished(j.id, j.result, j.errMsg, j.errKind); err != nil {
				t.Fatal(err)
			}
		}
		if err := jn.close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
		return
	}

	raw, err := os.ReadFile(journalSrcGolden)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`"type":"program"`)); n != 2 {
		t.Fatalf("%d program records in the golden log, want 2", n)
	}
	if scan := scanJournal(raw); scan.damaged() != 0 || scan.jobs != len(want) || scan.finished != 3 || scan.maxID != reserveBlock {
		t.Fatalf("scan: %d damaged, %d jobs, %d finished, max id %d", scan.damaged(), scan.jobs, scan.finished, scan.maxID)
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
	if jobs[0].req.Source != jobs[2].req.Source || jobs[1].req.Source != jobs[3].req.Source {
		t.Fatal("the jobs of one program do not share its text")
	}

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
