package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// formatGoldens are journals written by formats the journal no longer
// writes, which logs and shipped files of those formats must keep replaying:
//
//   - journal_src.golden, each program text a program record and every job a
//     submitted record naming its text by "src" plus, when finished, a finish
//     record — a clean Do hit included, whose two records sit side by side.
//     It was written at 595a00b, the last commit whose journal wrote every
//     job as a submitted record.
//   - journal_hit.golden, a clean hit one completed record carrying its own
//     request ("src" + "req") and result, before claim records. It was
//     written at de8cd36, the last commit whose journal wrote every clean hit
//     that way.
//
// The files are never regenerated from the code under test. To write one
// again, check its commit out, copy this file there, delete the other row
// (at 595a00b also hitJobs and writeHitJobs: appendJob and finishRecord do
// not exist there), and run
//
//	JOURNAL_SRC_OUT=$PWD/internal/service/testdata/journal_src.golden go test -run TestJournalSrcFormat ./internal/service/
//	JOURNAL_HIT_OUT=$PWD/internal/service/testdata/journal_hit.golden go test -run TestJournalSrcFormat ./internal/service/
//
// which writes the file instead of replaying it. The test repeats
// TestJournalInlineFormat's checks rather than sharing them, so that this
// file alone is what the recipe copies (inlinePrograms and inlineJob exist at
// both commits). At 595a00b openJournal also takes a compaction threshold
// after fsyncEvery (pass 4096) and snapshotRecords returns no error.
var formatGoldens = []struct {
	name, path, env string
	jobs            func() []inlineJob
	// write appends jobs to a fresh journal as the golden's commit did.
	write func(t *testing.T, jn *journal, jobs []inlineJob)
	// marker occurs count times in the golden; finished jobs have a finish
	// record; share lists pairs of jobs of one program.
	marker   string
	count    int
	finished int
	share    [][2]int
}{
	{name: "src", path: "testdata/journal_src.golden", env: "JOURNAL_SRC_OUT", jobs: srcJobs, write: writeSrcJobs,
		marker: `"type":"program"`, count: 2, finished: 3, share: [][2]int{{0, 2}, {1, 3}}},
	{name: "hit", path: "testdata/journal_hit.golden", env: "JOURNAL_HIT_OUT", jobs: hitJobs, write: writeHitJobs,
		marker: `"type":"completed","id":"job-`, count: 4, finished: 5, share: [][2]int{{0, 1}, {2, 3}, {3, 4}}},
}

// srcJobs are journal_src.golden's jobs: job-1 completed, job-2 failed, job-3
// unfinished, job-4 a clean hit through Do (submitted without a sync, then
// completed). The two texts are inlinePrograms.
func srcJobs() []inlineJob {
	a, b := inlinePrograms[0], inlinePrograms[1]
	return []inlineJob{
		{id: "job-1", req: Request{Source: a, Entry: "main", Threads: 4, Preset: "all"},
			result: &Result{JobID: "job-1", Outcome: Outcome{
				ScheduleHash: "00000000000000a1", ScheduleLen: 12, Cycles: 345, WaitCycles: 6, Acquisitions: 7,
				ClockUpdates: 8}}},
		{id: "job-2", req: Request{Source: b, Entry: "main", Threads: 2, Preset: "O2", PerturbSeed: 9},
			errMsg: "deadlock: wait-for cycle t0 -> t1 -> t0", errKind: "deadlock"},
		{id: "job-3", req: Request{Source: a, Entry: "main", Threads: 8, Baseline: true, DeadlineMS: 50}},
		{id: "job-4", req: Request{Source: b, Entry: "main", Threads: 4, Preset: "all", Artifacts: Artifacts{Stats: true}},
			result: &Result{JobID: "job-4", Cached: true, InstrCached: true, Outcome: Outcome{
				ScheduleHash: "00000000000000b4", ScheduleLen: 3, Cycles: 90, Clockable: []string{"main"}}}},
	}
}

// writeSrcJobs is journal_src.golden's recipe at 595a00b.
func writeSrcJobs(t *testing.T, jn *journal, want []inlineJob) {
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
}

// hitJobs are journal_hit.golden's jobs: job-1 completed by a worker, job-2
// failed by one, job-3 and job-4 clean Do hits of one request, job-5 a clean
// Submit hit of a request that differs from theirs only in its deadline. The
// two texts are inlinePrograms.
func hitJobs() []inlineJob {
	a, b := inlinePrograms[0], inlinePrograms[1]
	hit := Request{Source: b, Entry: "main", Threads: 4, Preset: "all", Artifacts: Artifacts{Stats: true}}
	late := hit
	late.DeadlineMS = 250
	hitResult := func(id string) *Result {
		return &Result{JobID: id, Cached: true, InstrCached: true, Outcome: Outcome{
			ScheduleHash: "00000000000000b4", ScheduleLen: 3, Cycles: 90, WaitCycles: 2, Acquisitions: 3,
			ClockUpdates: 5, Clockable: []string{"main"}}}
	}
	return []inlineJob{
		{id: "job-1", req: Request{Source: a, Entry: "main", Threads: 4, Preset: "all"},
			result: &Result{JobID: "job-1", Outcome: Outcome{
				ScheduleHash: "00000000000000a1", ScheduleLen: 12, Cycles: 345, WaitCycles: 6, Acquisitions: 7,
				ClockUpdates: 8}}},
		{id: "job-2", req: Request{Source: a, Entry: "main", Threads: 2, Preset: "O2", PerturbSeed: 9},
			errMsg: "deadlock: wait-for cycle t0 -> t1 -> t0", errKind: "deadlock"},
		{id: "job-3", req: hit, result: hitResult("job-3")},
		{id: "job-4", req: hit, result: hitResult("job-4")},
		{id: "job-5", req: late, result: hitResult("job-5")},
	}
}

// writeHitJobs is journal_hit.golden's recipe at de8cd36.
func writeHitJobs(t *testing.T, jn *journal, want []inlineJob) {
	for _, j := range want[:2] {
		if err := jn.appendJob(journalRecord{Type: recSubmitted, ID: j.id}, &j.req, progOf(&j.req), true); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range want[2:] {
		if err := jn.appendJob(finishRecord(j.id, j.result, nil), &j.req, progOf(&j.req), i == 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range want[:2] {
		if err := jn.appendFinished(j.id, j.result, j.errMsg, j.errKind); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalSrcFormat replays each golden log: every job comes back with its
// id, its full request (its text resolved from its program record) and its
// finish record, the scan finds no damage, and the journal's snapshot image
// replays to the same jobs.
func TestJournalSrcFormat(t *testing.T) {
	for _, g := range formatGoldens {
		t.Run(g.name, func(t *testing.T) {
			want := g.jobs()
			if out := os.Getenv(g.env); out != "" {
				os.Remove(out)
				jn, _, err := openJournal(nil, out, 16, nil)
				if err != nil {
					t.Fatal(err)
				}
				g.write(t, jn, want)
				if err := jn.close(); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", out)
				return
			}

			raw, err := os.ReadFile(g.path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(raw, []byte(g.marker)); n != g.count {
				t.Fatalf("%d %s in the golden log, want %d", n, g.marker, g.count)
			}
			if scan := scanJournal(raw); scan.damaged() != 0 || len(scan.jobs) != len(want) || scan.finished != g.finished || scan.maxID != reserveBlock {
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
			for _, p := range g.share {
				if jobs[p[0]].req.Source != jobs[p[1]].req.Source {
					t.Fatal("the jobs of one program do not share its text")
				}
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
		})
	}
}
