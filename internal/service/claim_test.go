package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// claimStreamRequests are the requests TestClaimReplayEquivalence draws
// from: four that share one result entry (a second spelling of the text,
// another artifact, another deadline), two on entries of their own, and one
// that deadlocks.
func claimStreamRequests() []Request {
	return []Request{
		{Source: fastProgram, Threads: 2},
		{Source: fastProgram, Threads: 2, Artifacts: Artifacts{Stats: true}},
		{Source: fastProgram, Threads: 2, DeadlineMS: 5000},
		{Source: fastProgram + "; respelled\n", Threads: 2},
		{Source: fastProgram, Threads: 3},
		{Source: fastProgram, Threads: 2, PerturbSeed: 7},
		{Source: deadlockProgram, Threads: 2},
	}
}

// jobViews is the JSON of Lookup for job-1 … job-n: "unknown" for an id no
// job holds.
func jobViews(t *testing.T, s *Service, n int64) []string {
	t.Helper()
	views := make([]string, n)
	for i := range views {
		v, err := s.Lookup(jobID(int64(i) + 1))
		if err != nil {
			views[i] = "unknown"
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = string(b)
	}
	return views
}

// TestClaimReplayEquivalence: a seeded stream of Do hits, Submit hits,
// misses, a failing job, requests that share a result entry but differ in
// text spelling, artifacts or deadline, and refused texts that are not UTF-8
// replays to byte-identical job views — from the log, from the snapshot
// image, from a standby's copy of the shipped lines, and from that image
// with the shipped lines behind it, as a resync overlap leaves it (its
// duplicate claim records quarantine nothing). Recovery recomputes each
// distinct completed request once, and the snapshot check passes.
func TestClaimReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var shipped [][]byte
	s, err := Open(Config{Workers: 2, JournalPath: filepath.Join(dir, "journal.jsonl"), ShipRecord: func(line []byte) {
		mu.Lock()
		shipped = append(shipped, line)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	reqs := claimStreamRequests()
	rng := detrand.New(51, 1)
	for range 300 {
		req := reqs[rng.IntN(len(reqs))]
		switch rng.IntN(8) {
		case 0:
			_, err := s.Do(context.Background(), Request{Source: fastProgram + "; caf\xe9\n", Threads: 2})
			if !errors.Is(err, diag.ErrBadConfig) {
				t.Fatalf("text that is not UTF-8: err = %v, want ErrBadConfig", err)
			}
		case 1, 2:
			id, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Wait(context.Background(), id); err != nil && !errors.Is(err, diag.ErrDeadlock) {
				t.Fatal(err)
			}
		default:
			if _, err := s.Do(context.Background(), req); err != nil && !errors.Is(err, diag.ErrDeadlock) {
				t.Fatal(err)
			}
		}
	}
	s.mu.Lock()
	n := s.seq
	completed := map[Request]bool{}
	for _, j := range s.jobs {
		if j.status == StatusDone {
			completed[j.req] = true
		}
	}
	s.mu.Unlock()
	want := jobViews(t, s, n)
	lines, err := s.JournalSnapshotRecords()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.JobsCompleted < 100 || snap.JobsFailed == 0 || snap.ResultCacheHits < 100 {
		t.Fatalf("the stream made %d completed (%d hits) and %d failed jobs; want hits and failures", snap.JobsCompleted, snap.ResultCacheHits, snap.JobsFailed)
	}
	if err := s.CheckSnapshotRecords(context.Background(), lines); err != nil {
		t.Fatalf("snapshot check: %v", err)
	}

	image := bytes.Join(lines, nil)
	stream := bytes.Join(shipped, nil)
	if bytes.Count(stream, []byte(`"type":"claim"`)) == 0 || bytes.Count(stream, []byte(`"claim":"claim-`)) < 100 {
		t.Fatal("the stream journaled no hit by its claim")
	}
	for _, tc := range []struct {
		name string
		log  []byte // nil: the service's own log
	}{
		{"log", nil},
		{"snapshot image", image},
		{"shipped lines", stream},
		{"image and shipped lines", append(image[:len(image):len(image)], stream...)},
	} {
		path := filepath.Join(dir, "journal.jsonl")
		if tc.log != nil {
			path = filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
			if err := os.WriteFile(path, tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := Open(Config{Workers: 2, JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		got := jobViews(t, re, n)
		if err := re.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s replays as\n%s\nwant\n%s", tc.name, jobID(int64(i)+1), got[i], want[i])
			}
		}
		snap := re.Snapshot()
		if snap.JournalQuarantined != 0 || snap.Divergences != 0 || snap.RecoveryChecks != int64(len(completed)) {
			t.Fatalf("%s: %d quarantined, %d divergences, %d recovery checks; want 0, 0 and %d, one per distinct completed request",
				tc.name, snap.JournalQuarantined, snap.Divergences, snap.RecoveryChecks, len(completed))
		}
	}
}

// TestClaimRecords: the first clean hit of a request writes its claim record
// behind the program record, every later one a single line naming it, and
// the entry remembers the claim's id. A restarted service digests the claim
// once more but does not write it again: the log already holds it.
func TestClaimRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	req := Request{Source: fastProgram, Threads: 2}
	stats := req
	stats.Artifacts.Stats = true
	size := func() int64 {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	count := func(what string) int {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(raw, []byte(what))
	}
	var sizes []int64
	for round := range 2 {
		s, err := Open(Config{Workers: 1, JournalPath: path, JournalFsyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			// The checks of the two claims keep their one recompute: the
			// request below is a hit naming its claim.
			waitChecks(t, s, 2, 1)
		}
		mustDo(t, s, req) // round 0: a miss, the cache starts empty
		for range 3 {
			if res := mustDo(t, s, req); !res.Cached {
				t.Fatal("not a hit")
			}
			sizes = append(sizes, size())
		}
		norm := req
		if err := normalize(&norm); err != nil {
			t.Fatal(err)
		}
		_, ie := s.programs.get(&norm, false)
		ent, ok := s.results.peek(ie.resultKey(simConfigOf(&norm)))
		if !ok || !strings.HasPrefix(ent.claimFor(&norm), "claim-") {
			t.Fatalf("round %d: the entry remembers no claim for the request", round)
		}
		mustDo(t, s, stats)
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(`"type":"claim"`); n != 2 {
		t.Fatalf("%d claim records for two requests, want 2", n)
	}
	if n := count(`"type":"program"`); n != 1 {
		t.Fatalf("%d program records, want 1", n)
	}
	if n := count(`"claim":"claim-`); n != 9 {
		t.Fatalf("%d records name a claim, want 9", n)
	}
	// A hit after the first adds one line, of one size while the ids do.
	if a, b, c, d := sizes[1]-sizes[0], sizes[2]-sizes[1], sizes[4]-sizes[3], sizes[5]-sizes[4]; a != b || c != d || max(a, c) >= 150 {
		t.Fatalf("later hits add %d, %d, %d and %d bytes; want one line of under 150 bytes each", a, b, c, d)
	}
}

// TestClaimConcurrentHits: eight goroutines hit one result entry with six
// requests, so its one-request memo is replaced while others read it. The log holds one claim record per request, and every job
// replays as it was answered.
func TestClaimConcurrentHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := range 6 {
		reqs = append(reqs, Request{Source: fastProgram, Threads: 2, DeadlineMS: int64(1000 + i), Artifacts: Artifacts{Stats: i%2 == 0}})
	}
	mustDo(t, s, reqs[0])
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				if res, err := s.Do(context.Background(), reqs[(g+i)%len(reqs)]); err != nil || !res.Cached {
					t.Errorf("hit %d of goroutine %d: %+v, %v", i, g, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := jobViews(t, s, 1+8*200)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`"type":"claim"`)); n != len(reqs) {
		t.Fatalf("%d claim records for %d requests", n, len(reqs))
	}
	re, err := Open(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	got := jobViews(t, re, 1+8*200)
	if err := re.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s replays as\n%s\nwant\n%s", jobID(int64(i)+1), got[i], want[i])
		}
	}
}

// claimIDOf is the id the journal gives claim record rec: the digest of the
// line the writer writes for it with an empty id.
func claimIDOf(rec journalRecord) string {
	rec.ID = ""
	var w jsonWriter
	rec.writeJSON(&w)
	return claimID(w.b)
}

// TestClaimDamage: the scanner's rules for claim records and the records
// naming them. A damaged claim line costs its hits, as a damaged program line
// costs its jobs; a claim that does not hash to its id, names an unknown
// program, or lacks its result, a record naming an unknown claim, one that
// names a claim and carries a request or result of its own, and a failed
// record naming a claim are quarantined; a claim written twice is not, nor
// one whose bytes this writer would not write — a later writer's field — as
// long as they hash to its id.
func TestClaimDamage(t *testing.T) {
	text := "module m"
	pid := programID(text)
	line := func(rec journalRecord) string {
		var w jsonWriter
		if !rec.writeJSON(&w) {
			t.Fatal("writer declined")
		}
		return string(frameLine(w.b))
	}
	program := line(journalRecord{Type: recProgram, ID: pid, Text: text})
	claim := journalRecord{Type: recClaim, Src: pid, Req: &Request{Threads: 4},
		Result: &Result{Cached: true, InstrCached: true, Outcome: Outcome{ScheduleHash: "00"}}}
	claim.ID = claimIDOf(claim)
	hit := func(id, cid string) string { return line(journalRecord{Type: recCompleted, ID: id, Claim: cid}) }
	forged := claim
	forged.Result = &Result{Outcome: Outcome{ScheduleHash: "ff"}}
	orphan := claim
	orphan.Src = programID("module n")
	orphan.ID = claimIDOf(orphan)
	noResult := journalRecord{Type: recClaim, Src: pid, Req: &Request{Threads: 4}}
	noResult.ID = claimIDOf(noResult)
	both := journalRecord{Type: recCompleted, ID: "job-3", Claim: claim.ID, Result: &Result{Outcome: Outcome{ScheduleHash: "00"}}}
	// The claim as a writer with one more field would write it.
	var w jsonWriter
	blank := claim
	blank.ID = ""
	blank.writeJSON(&w)
	body := append(w.b[:len(w.b)-1:len(w.b)-1], `,"later":{"field":true}}`...)
	laterID := claimID(body)
	later := string(frameLine(bytes.Replace(body, []byte(`"id":""`), []byte(`"id":"`+laterID+`"`), 1)))

	for _, tc := range []struct {
		name        string
		log         string
		quarantined []string // the reasons, in order
		jobs        int
	}{
		{"intact", program + line(claim) + hit("job-1", claim.ID) + hit("job-2", claim.ID), nil, 2},
		{"written twice", program + line(claim) + hit("job-1", claim.ID) + line(claim) + hit("job-2", claim.ID), nil, 2},
		{"a later writer's field", program + later + hit("job-1", laterID) + hit("job-2", laterID), nil, 2},
		{"unknown claim", program + hit("job-1", claim.ID) + line(claim) + hit("job-2", claim.ID), []string{"unknown claim"}, 1},
		{"body does not hash to its id", program + line(forged) + hit("job-1", claim.ID) + hit("job-2", claim.ID),
			[]string{"does not match its id", "unknown claim", "unknown claim"}, 0},
		{"unknown program", program + line(orphan) + hit("job-1", orphan.ID), []string{"unknown program", "unknown claim"}, 0},
		{"claim without result", program + line(noResult) + hit("job-1", noResult.ID), []string{"without request or result", "unknown claim"}, 0},
		{"claim and result", program + line(claim) + hit("job-1", claim.ID) + line(both), []string{"carries a request or a result"}, 1},
		{"failed naming a claim", program + line(claim) + line(journalRecord{Type: recFailed, ID: "job-1", Claim: claim.ID, Error: "x"}),
			[]string{"no completed record"}, 0},
	} {
		scan := scanJournal([]byte(tc.log))
		if len(scan.quarantined) != len(tc.quarantined) || len(scan.jobs) != tc.jobs {
			t.Fatalf("%s: %d quarantined, %d jobs; want %d and %d", tc.name, len(scan.quarantined), len(scan.jobs), len(tc.quarantined), tc.jobs)
		}
		for i, q := range scan.quarantined {
			if !strings.Contains(q.reason, tc.quarantined[i]) {
				t.Fatalf("%s: quarantine %d: %q, want it to say %q", tc.name, i, q.reason, tc.quarantined[i])
			}
		}
		for _, jj := range scan.jobs {
			if jj.req.Source != text || jj.req.Threads != 4 || jj.result == nil || jj.result.JobID != jj.id || jj.result.ScheduleHash != "00" {
				t.Fatalf("%s: %s replays as %+v, %+v", tc.name, jj.id, jj.req, jj.result)
			}
		}
	}
}
