package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/diag"
	"repro/internal/nemesis"
	"repro/internal/splash"
	"repro/internal/vfs"
)

// waitStatus polls Lookup until the job reaches want (background recovery
// checks flip recovered jobs asynchronously).
func waitStatus(t *testing.T, s *Service, id string, want Status) *JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := s.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup %s: %v", id, err)
		}
		if v.Status == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q, want %q", id, v.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalRecoveryRoundTrip: jobs completed before a clean shutdown are
// served from the journal after restart with identical deterministic cores,
// and the background cross-check re-executes each one without divergence.
func TestJournalRecoveryRoundTrip(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()
	path := filepath.Join(t.TempDir(), "jobs.journal")

	ref := map[string]string{}
	svc, err := Open(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		res, err := svc.Do(context.Background(), Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ref[res.JobID] = res.Core()
	}
	// One deterministic failure: its rendering and kind must also survive.
	_, err = svc.Do(context.Background(), Request{Source: deadlockProgram, Threads: 2})
	if err == nil {
		t.Fatal("deadlock job succeeded")
	}
	failMsg := err.Error()
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2, err := Open(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close(context.Background())
	for id, want := range ref {
		v := waitStatus(t, svc2, id, StatusDone)
		if v.Result == nil || v.Result.Core() != want {
			t.Fatalf("recovered %s: core %v, want %s", id, v.Result, want)
		}
	}
	vf, err := svc2.Lookup("job-5")
	if err != nil {
		t.Fatalf("Lookup failed job: %v", err)
	}
	if vf.Status != StatusFailed || vf.Error != failMsg || vf.ErrorKind != "deadlock" {
		t.Fatalf("recovered failure = %+v, want failed/%q/deadlock", vf, failMsg)
	}

	// Cross-checks ran, one per distinct request, and agreed; new ids
	// continue past the journal.
	deadline := time.Now().Add(5 * time.Second)
	for svc2.Snapshot().RecoveryChecks < 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	snap := svc2.Snapshot()
	if snap.RecoveryChecks != 4 {
		t.Fatalf("recovery checks = %d, want 4", snap.RecoveryChecks)
	}
	if snap.Divergences != 0 {
		t.Fatalf("recovery cross-check reported %d divergences", snap.Divergences)
	}
	if snap.RecoveredJobs != 5 {
		t.Fatalf("recovered jobs = %d, want 5", snap.RecoveredJobs)
	}
	id, err := svc2.Submit(Request{Source: src, PerturbSeed: 99})
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	// Past the journal's reservation, not just its records: the reader cannot
	// know that no hit's records were lost above job-5.
	if want := jobID(reserveBlock + 1); id != want {
		t.Fatalf("post-recovery id = %s, want %s (sequence continues past the journal's reservation)", id, want)
	}
}

// TestJournalReplaysIncomplete: a crash that loses completion records leaves
// jobs incomplete in the log; restart re-executes them and determinism makes
// the re-run identical to an uninterrupted one.
func TestJournalReplaysIncomplete(t *testing.T) {
	b, err := splash.New("radiosity", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()
	path := filepath.Join(t.TempDir(), "jobs.journal")

	// Reference from an uninterrupted, journal-free service.
	refSvc := New(Config{Workers: 1})
	refRes := mustDo(t, refSvc, Request{Source: src})
	refSvc.Close(context.Background())

	// A huge fsync batch keeps every completion record in the pending buffer,
	// which Kill drops — so the journal retains only submitted records.
	svc, err := Open(Config{Workers: 1, JournalPath: path, JournalFsyncEvery: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := svc.Submit(Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, id)
	}
	if _, err := svc.Wait(context.Background(), ids[0]); err != nil {
		t.Fatalf("wait: %v", err)
	}
	svc.Kill()

	svc2, err := Open(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close(context.Background())
	for i, id := range ids {
		v := waitStatus(t, svc2, id, StatusDone)
		if i == 0 && v.Result.Core() != refRes.Core() {
			t.Fatalf("re-executed %s: core %s, want %s", id, v.Result.Core(), refRes.Core())
		}
	}
	if got := svc2.Snapshot().RecoveredJobs; got != 3 {
		t.Fatalf("recovered jobs = %d, want 3", got)
	}
}

// TestJournalTornTail: a partial final line (crash mid-write) is truncated
// away on open, and every record before it replays.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	req := Request{Source: "m", Threads: 4, Entry: "main", Preset: "all"}
	rec := func(r journalRecord) string { return string(recLine(t, &r)) }
	content := rec(journalRecord{Type: recSubmitted, ID: "job-1", Req: &req}) +
		rec(journalRecord{Type: recCompleted, ID: "job-1", Result: &Result{ScheduleHash: "aa"}}) +
		rec(journalRecord{Type: recSubmitted, ID: "job-2", Req: &req}) +
		`{"type":"completed","id":"job-2","resu` // torn mid-write (and unframed: truncated, never parsed)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	jn, jobs, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer jn.close()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if !jobs[0].done || jobs[0].result == nil || jobs[0].result.ScheduleHash != "aa" {
		t.Fatalf("job-1 replay = %+v, want completed", jobs[0])
	}
	if jobs[1].done {
		t.Fatal("job-2 replayed as done from a torn record")
	}
	// The torn bytes are gone: appending and re-reading stays parseable.
	if err := jn.appendFinished("job-2", &Result{ScheduleHash: "bb"}, "", ""); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := jn.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, jobs2, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if len(jobs2) != 2 || !jobs2[1].done || jobs2[1].result.ScheduleHash != "bb" {
		t.Fatalf("post-truncation replay = %+v", jobs2)
	}
}

// TestDuplicateFinishesReplayLastWins: duplicate finish records (a divergence
// verdict behind a journaled result, a standby's resync overlap) stay in the
// log, since nothing rewrites a healthy one, and replay takes each job's last.
// Each program record is written once, ahead of its first user, and the
// replayed jobs of one program share its text.
func TestDuplicateFinishesReplayLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jn, _, err := openJournal(nil, path, 1, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	reqs := []Request{{Source: "m"}, {Source: "m2", Threads: 2}, {Source: "m", PerturbSeed: 3}}
	for i := range reqs {
		id := fmt.Sprintf("job-%d", i+1)
		if err := jn.appendSubmitted(id, &reqs[i], true); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("job-%d", i+1)
			if err := jn.appendFinished(id, &Result{ScheduleHash: fmt.Sprintf("h%d", round)}, "", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if jobs, finished, _, _ := jn.snapshotLive(); jobs != 3 || finished != 3 || len(jn.held) != 2 {
		t.Fatalf("journal counts %d jobs, %d finished, %d held records; want 3, 3, 2", jobs, finished, len(jn.held))
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jobRecs, programs := splitPrograms(t, imageRecords(t, raw)[1:])
	if len(jobRecs) != 15 || programs != 2 {
		t.Fatalf("log holds %d job records and %d programs, want 15 (3 submitted + 12 finish) and 2", len(jobRecs), programs)
	}
	_, jobs, err := openJournal(nil, path, 1, nil)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	for i, jj := range jobs {
		if jj.req != reqs[i] || !jj.done || jj.result == nil || jj.result.ScheduleHash != "h3" {
			t.Fatalf("%s replay = %+v, want %+v and last finish h3", jj.id, jj, reqs[i])
		}
	}
	if jobs[0].req.Source != jobs[2].req.Source || unsafe.StringData(jobs[0].req.Source) != unsafe.StringData(jobs[2].req.Source) {
		t.Fatal("replayed jobs of one program do not share its text")
	}
}

// TestProgramOfQuarantinedUserStaysHeld: a program record is the log's
// whether or not a job still names it. One whose only user was quarantined is
// held on reopen, so a later job of its text names it instead of writing the
// text a second time.
func TestProgramOfQuarantinedUserStaysHeld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jn, _, err := openJournal(nil, path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Source: "module m\n"}
	if err := jn.appendSubmitted("job-1", &req, true); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	user := bytes.Index(raw, []byte(`"type":"submitted"`))
	if user < 0 {
		t.Fatalf("no submitted record in %q", raw)
	}
	raw[user+len(`"type":"sub`)] ^= 0x01 // its frame no longer checks
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, jobs, err := openJournal(nil, path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || jn.quarantined != 1 {
		t.Fatalf("reopen: %d jobs, %d quarantined lines; want 0 and 1", len(jobs), jn.quarantined)
	}
	if err := jn.appendSubmitted("job-2", &req, true); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`"type":"program"`)); n != 1 {
		t.Fatalf("the log holds %d program records, want 1:\n%s", n, raw)
	}
}

// TestHeldIndexesRecordIDs: the journal indexes its log by record id alone.
// After N distinct programs and a claim for some of them, held holds exactly
// their N program ids and the claim ids, on the running journal and on
// reopen, and no map of the journal holds a program text.
func TestHeldIndexesRecordIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jn, _, err := openJournal(nil, path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	want := map[string]struct{}{}
	texts := map[string]bool{}
	for i := range n {
		req := Request{Source: fmt.Sprintf("module m%d\n", i)}
		texts[req.Source] = true
		want[programID(req.Source)] = struct{}{}
		if err := jn.appendSubmitted(jobID(int64(2*i+1)), &req, false); err != nil {
			t.Fatal(err)
		}
		if i%4 != 0 {
			continue
		}
		cid, err := jn.appendHit(jobID(int64(2*i+2)), &req, progOf(&req), &Result{ScheduleHash: "00"}, "", false)
		if err != nil {
			t.Fatal(err)
		}
		want[cid] = struct{}{}
	}
	if !reflect.DeepEqual(jn.held, want) {
		t.Fatalf("held %d ids, want the %d program and %d claim ids", len(jn.held), n, len(want)-n)
	}
	v := reflect.ValueOf(jn).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if f.Kind() != reflect.Map {
			continue
		}
		for it := f.MapRange(); it.Next(); {
			k, e := it.Key(), it.Value()
			if k.Kind() == reflect.String && texts[k.String()] || e.Kind() == reflect.String && texts[e.String()] {
				t.Fatalf("journal.%s holds a program text", v.Type().Field(i).Name)
			}
		}
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	jn, _, err = openJournal(nil, path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.kill()
	if !reflect.DeepEqual(jn.held, want) {
		t.Fatalf("reopen: held %d ids, want %d", len(jn.held), len(want))
	}
}

// TestJournalDegradation: an injected journal write error degrades the
// service — journaling and the result cache turn off — but it keeps serving
// correct, freshly computed answers.
func TestJournalDegradation(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()
	path := filepath.Join(t.TempDir(), "jobs.journal")

	// The second append fails: the disk fails every write once the first
	// job's submit record is durable and its worker has missed the cache,
	// and with every record its own commit the failing write is that job's
	// finish record.
	ffs := nemesis.NewFaultFS(nemesis.New(1), vfs.OS{}, nemesis.FaultFSConfig{WriteErrRate: 1})
	svc, err := Open(Config{
		Workers:           1,
		JournalPath:       path,
		JournalFsyncEvery: 1,
		FS:                ffs,
		Fill:              func(context.Context, string, *Request) *Result { ffs.Arm(true); return nil },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close(context.Background())

	first := mustDo(t, svc, Request{Source: src}) // submit ok, finish append fails
	second := mustDo(t, svc, Request{Source: src})
	if first.Core() != second.Core() {
		t.Fatal("degraded service changed answers")
	}
	if second.Cached {
		t.Fatal("degraded service served from the result cache")
	}
	snap := svc.Snapshot()
	if !snap.JournalDegraded {
		t.Fatal("service not marked degraded after journal write error")
	}
	if snap.JournalErrors == 0 {
		t.Fatal("journal error not counted")
	}
	if snap.JobsCompleted != 2 {
		t.Fatalf("completed = %d, want 2 (degradation must not fail jobs)", snap.JobsCompleted)
	}
}

// TestJournalRecoveryCrossCheckDivergence: a journaled result whose hash the
// pipeline cannot reproduce is a typed divergence — the recovered job flips
// to failed, the counter moves, and the admission circuit breaker trips
// instead of the service silently serving the stale answer.
func TestJournalRecoveryCrossCheckDivergence(t *testing.T) {
	b, err := splash.New("ocean", 4)
	if err != nil {
		t.Fatalf("splash.New: %v", err)
	}
	src := b.Module.String()
	path := filepath.Join(t.TempDir(), "jobs.journal")

	svc, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res := mustDo(t, svc, Request{Source: src})
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tamper with the journaled hash and re-frame with a valid CRC — the
	// checksum-passes-but-content-is-stale case (a stale replica, a logical
	// bug upstream) that only the recovery cross-check can catch. A naive
	// byte edit would just fail the CRC and be quarantined instead.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tampered bytes.Buffer
	replaced := false
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		payload, err := unframeLine(line)
		if err != nil {
			t.Fatalf("unframe %q: %v", line, err)
		}
		if bytes.Contains(payload, []byte(res.ScheduleHash)) && !replaced {
			payload = bytes.Replace(payload, []byte(res.ScheduleHash), []byte("deadbeefdeadbeef"), 1)
			replaced = true
		}
		tampered.Write(frameLine(payload))
	}
	if !replaced {
		t.Fatalf("journal does not contain hash %s", res.ScheduleHash)
	}
	if err := os.WriteFile(path, tampered.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := Open(Config{Workers: 1, JournalPath: path, BreakerThreshold: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close(context.Background())
	v := waitStatus(t, svc2, res.JobID, StatusFailed)
	if v.ErrorKind != "divergence" {
		t.Fatalf("error kind = %q, want divergence", v.ErrorKind)
	}
	snap := svc2.Snapshot()
	if snap.Divergences == 0 {
		t.Fatal("divergence not counted")
	}
	if snap.BreakerState != "open" || snap.BreakerTrips != 1 {
		t.Fatalf("breaker = %s/%d trips, want open/1", snap.BreakerState, snap.BreakerTrips)
	}
	_, err = svc2.Submit(Request{Source: src})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("submit with open breaker = %v, want ErrCircuitOpen", err)
	}
	if ra := RetryAfter(err); ra == 0 {
		t.Fatalf("RetryAfter(circuit open) = %d, want nonzero", ra)
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the journal opener. Whatever the
// damage — torn tails, truncated UTF-8, interior garbage, oversized or empty
// lines — opening must not panic or error (damage truncates, it never
// corrupts), the replayed job set must be internally consistent, the
// journal's snapshot image must open to the same jobs and id floor, and the
// repaired log must remain appendable and replayable.
//
// Run with: go test -fuzz=FuzzJournalReplay ./internal/service/
// Seed corpus: testdata/fuzz/FuzzJournalReplay/ (checked in).
func FuzzJournalReplay(f *testing.F) {
	framed := func(payload string) string { return string(frameLine([]byte(payload))) }
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(framed(`{"type":"submitted","id":"job-1","req":{"source":"module m"}}`)))
	// Torn tail: a complete record then a crash mid-write.
	f.Add([]byte(framed(`{"type":"submitted","id":"job-1","req":{"source":"module m"}}`) +
		`{"type":"completed","id":"job-1","resu`))
	// Truncated UTF-8 / raw binary damage inside a correctly framed line.
	f.Add([]byte(framed("{\"type\":\"submitted\",\"id\":\"job-\xff\xfe\x01\"")))
	// Interior damage between two valid records: noise, and a bare-JSON
	// record (an unframed line is damage, however well it parses).
	f.Add([]byte(framed(`{"type":"submitted","id":"a","req":{"source":"module m"}}`) +
		"!!not json!!\n" +
		`{"type":"submitted","id":"bare","req":{"source":"module m"}}` + "\n" +
		framed(`{"type":"submitted","id":"b","req":{"source":"module m"}}`)))
	// Records the service never writes: empty id, unknown type, finish with
	// no matching submit.
	f.Add([]byte(framed(`{"type":"submitted","id":"","req":{"source":"module m"}}`) +
		framed(`{"type":"frobnicated","id":"x"}`) +
		framed(`{"type":"completed","id":"ghost","result":{"schedule_hash":"00"}}`)))
	// A long line of noise (scaled-down stand-in for an oversized record).
	f.Add(append(bytes.Repeat([]byte{'A'}, 1<<16), '\n'))
	// An intact frame, one with a flipped payload byte (checksum must
	// reject), and a log mixing frames with malformed frame headers.
	intact := framed(`{"type":"submitted","id":"f1","req":{"source":"module m"}}`)
	f.Add([]byte(intact))
	flipped := []byte(intact)
	flipped[len(flipped)-3] ^= 0x01
	f.Add(flipped)
	f.Add([]byte(intact +
		framed(`{"type":"submitted","id":"f2","req":{"source":"module m"}}`) +
		"#c1 zzzzzzzz 4 !!!!\n" +
		"#c1 00000000\n"))

	// Reservations: a log that holds them between its job records, one whose
	// id is no job-N, one with more digits than the service ever issues, and
	// one cut through by the crash.
	f.Add([]byte(framed(`{"type":"reserved","id":"job-1024"}`) +
		framed(`{"type":"submitted","id":"job-1024","req":{"source":"module m"}}`) +
		framed(`{"type":"reserved","id":"job-2048"}`) +
		framed(`{"type":"submitted","id":"job-1025","req":{"source":"module m"}}`) +
		framed(`{"type":"reserved","id":"job-x"}`) +
		framed(`{"type":"reserved","id":"job-99999999999999999999"}`) +
		`#c1 4d2a1e27 35 {"type":"reserved","id":"job-30`))

	// Program records: an intact one and its users, one whose text does not
	// hash to its id (it and every user quarantine), a user ahead of its
	// program, a program written twice, and a user that both names a
	// program and carries a text.
	prog := func(text string) (string, string) {
		id := programID(text)
		return id, framed(`{"type":"program","id":"` + id + `","text":"` + text + `"}`)
	}
	user := func(id, src string) string {
		return framed(`{"type":"submitted","id":"` + id + `","src":"` + src + `","req":{"source":"","threads":4}}`)
	}
	pm, progM := prog("module m")
	pn, progN := prog("module n")
	f.Add([]byte(progM + user("job-1", pm) + framed(`{"type":"completed","id":"job-1","result":{"schedule_hash":"00"}}`) +
		user("job-2", pm) + progN + user("job-3", pn)))
	f.Add([]byte(framed(`{"type":"program","id":"`+pm+`","text":"module n"}`) + user("job-1", pm) + user("job-2", pm) + progN + user("job-3", pn)))
	f.Add([]byte(user("job-1", pm) + progM + user("job-2", pm)))
	f.Add([]byte(progM + user("job-1", pm) + progM + user("job-2", pm)))
	f.Add([]byte(progM + framed(`{"type":"submitted","id":"job-1","src":"`+pm+`","req":{"source":"module m"}}`)))

	// Claim records: an intact one and its users beside a submitted job, a
	// hit naming a claim not yet written, a claim whose body does not hash
	// to its id, a claim naming an unknown program, and a record carrying
	// both a claim and a request and result.
	claimOn := func(src, hash string) journalRecord {
		rec := journalRecord{Type: recClaim, Src: src, Req: &Request{Threads: 4}, Result: &Result{Cached: true, ScheduleHash: hash}}
		rec.ID = claimIDOf(rec)
		return rec
	}
	line := func(rec journalRecord) string {
		var w jsonWriter
		rec.writeJSON(&w)
		return framed(string(w.b))
	}
	named := func(id, cid string) string {
		return framed(`{"type":"completed","id":"` + id + `","claim":"` + cid + `"}`)
	}
	cm, cn := claimOn(pm, "00"), claimOn(pn, "00")
	forged := cm
	forged.Result = &Result{ScheduleHash: "ff"}
	f.Add([]byte(progM + line(cm) + named("job-1", cm.ID) + user("job-2", pm) + named("job-3", cm.ID) + line(cm) + named("job-4", cm.ID)))
	f.Add([]byte(progM + named("job-1", cm.ID) + line(cm) + named("job-2", cm.ID)))
	f.Add([]byte(progM + line(forged) + named("job-1", cm.ID) + named("job-2", forged.ID)))
	f.Add([]byte(progM + line(cn) + named("job-1", cn.ID) + progN + line(cn) + named("job-2", cn.ID)))
	f.Add([]byte(progM + line(cm) + framed(`{"type":"completed","id":"job-1","claim":"`+cm.ID+`","src":"`+pm+
		`","req":{"source":"","threads":4},"result":{"schedule_hash":"00"}}`)))

	// The snapshot check is the scanner's second entrance (peer-supplied
	// bytes instead of a file): it must refuse exactly what recovery would
	// quarantine or truncate, and reach a verdict on everything else.
	svc := New(Config{Workers: 1})
	f.Cleanup(func() { svc.Close(context.Background()) })

	// Each input's journals live in memory (memFS). On the disk this was
	// measured on, removing the files an input had synced cost tens of
	// milliseconds, so minimizing a new input (thousands of runs) used up the
	// run's whole budget.
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := memFS{}
		scan := scanJournal(data)
		damaged := len(scan.quarantined) > 0 || scan.tornBytes > 0
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := svc.CheckSnapshotRecords(ctx, [][]byte{data})
		cancel()
		if damaged != errors.Is(err, diag.ErrCorruption) {
			t.Fatalf("snapshot check of a %d-quarantine, %d-torn-byte image: err = %v", len(scan.quarantined), scan.tornBytes, err)
		}
		if !damaged && err != nil && !errors.Is(err, diag.ErrDivergence) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("snapshot check of a clean image: err = %v, want nil or a divergence", err)
		}

		path := "fuzz.journal"
		fsys[path] = bytes.Clone(data)
		jn, jobs, err := openJournal(fsys, path, 1, nil)
		if err != nil {
			t.Fatalf("openJournal rejected arbitrary bytes instead of truncating: %v", err)
		}
		// Ids continue above every id the log shows, damaged lines or not.
		floor := jn.reserved
		if floor < scan.maxID || (damaged && floor < scan.maxID+reserveBlock) {
			t.Fatalf("ids continue from %d; the log shows %d and %d damaged lines", floor, scan.maxID, scan.damaged())
		}
		seen := make(map[string]bool, len(jobs))
		for _, jj := range jobs {
			if jj.id == "" {
				t.Fatal("replay resurrected a job with an empty id")
			}
			if seen[jj.id] {
				t.Fatalf("replay produced duplicate job %q", jj.id)
			}
			seen[jj.id] = true
		}
		// The third entrance: the snapshot a peer takes over from is what
		// this recovery would open, and opens to the same jobs and floor.
		lines, err := jn.snapshotRecords()
		if err != nil {
			t.Fatal(err)
		}
		image := "image.journal"
		fsys[image] = bytes.Join(lines, nil)
		ij, ijobs, err := openJournal(fsys, image, 1, nil)
		if err != nil {
			t.Fatalf("openJournal rejected a snapshot image: %v", err)
		}
		ij.kill()
		if ij.reserved < floor || ij.quarantined != 0 {
			t.Fatalf("snapshot image: ids continue from %d (the journal from %d), %d quarantined lines", ij.reserved, floor, ij.quarantined)
		}
		if !reflect.DeepEqual(ijobs, jobs) {
			t.Fatalf("snapshot image replays to %d jobs, the journal to %d: %+v, want %+v", len(ijobs), len(jobs), ijobs, jobs)
		}
		// The truncated log must still accept appends...
		probe := "fuzz-probe"
		for seen[probe] {
			probe += "x"
		}
		if err := jn.appendSubmitted(probe, &Request{Source: "module m"}, true); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := jn.appendFinished(probe, &Result{ScheduleHash: "feedface00000000"}, "", ""); err != nil {
			t.Fatalf("finish after repair: %v", err)
		}
		if err := jn.close(); err != nil {
			t.Fatalf("close after repair: %v", err)
		}
		// ...and replay back to exactly the pre-damage jobs plus the probe.
		jn2, jobs2, err := openJournal(fsys, path, 1, nil)
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer jn2.kill()
		if jn2.reserved < floor {
			t.Fatalf("ids continued from %d, and from %d after the repair removed the damaged lines", floor, jn2.reserved)
		}
		if len(jobs2) != len(jobs)+1 {
			t.Fatalf("reopen replayed %d jobs, want %d", len(jobs2), len(jobs)+1)
		}
		found := false
		for _, jj := range jobs2 {
			if jj.id == probe {
				found = true
				if !jj.done || jj.result == nil || jj.result.ScheduleHash != "feedface00000000" {
					t.Fatalf("probe job state wrong after reopen: done=%v result=%+v", jj.done, jj.result)
				}
			}
		}
		if !found {
			t.Fatal("probe job lost on reopen")
		}
	})
}

// memFS is a vfs.FS held in memory, file name to contents, for one
// goroutine: a file is written by appending, and a sync does nothing.
type memFS map[string][]byte

func (m memFS) ReadFile(name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return bytes.Clone(b), nil
}

func (m memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	if _, ok := m[name]; !ok && flag&os.O_CREATE == 0 {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	if _, ok := m[name]; !ok || flag&os.O_TRUNC != 0 {
		m[name] = []byte{}
	}
	return memFile{m, name}, nil
}

func (m memFS) Rename(oldpath, newpath string) error {
	b, ok := m[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m, oldpath)
	m[newpath] = b
	return nil
}

func (m memFS) Remove(name string) error {
	if _, ok := m[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m, name)
	return nil
}

type memFile struct {
	fs   memFS
	name string
}

func (f memFile) Write(p []byte) (int, error) {
	f.fs[f.name] = append(f.fs[f.name], p...)
	return len(p), nil
}

func (f memFile) Seek(int64, int) (int64, error) { return int64(len(f.fs[f.name])), nil }
func (memFile) Sync() error                      { return nil }
func (memFile) Close() error                     { return nil }

// TestJournalOversizedRecordQuarantined: a line past maxJournalRecord cannot
// be a record this journal wrote, so the recovery scrub quarantines it —
// records on both sides of the monster line survive, and the rewritten log
// shrinks back to the intact records.
func TestJournalOversizedRecordQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	var buf bytes.Buffer
	buf.Write(frameLine([]byte(`{"type":"submitted","id":"keep","req":{"source":"module m"}}`)))
	buf.Write(bytes.Repeat([]byte{'z'}, maxJournalRecord+2))
	buf.WriteByte('\n')
	buf.Write(frameLine([]byte(`{"type":"submitted","id":"after","req":{"source":"module m"}}`)))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, jobs, err := openJournal(nil, path, 1, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer jn.close()
	if len(jobs) != 2 || jobs[0].id != "keep" || jobs[1].id != "after" {
		t.Fatalf("replayed %d jobs %v, want keep and after", len(jobs), jobs)
	}
	if jn.quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (the oversized line)", jn.quarantined)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > int64(maxJournalRecord) {
		t.Fatalf("oversized line not scrubbed away: file is %d bytes", fi.Size())
	}
}

// TestJournalAppendAfterClose: a journal that a clean shutdown closed takes
// no more records and says so; it used to dereference its nil file.
func TestJournalAppendAfterClose(t *testing.T) {
	jn, _, err := openJournal(nil, filepath.Join(t.TempDir(), "journal.jsonl"), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Source: fastProgram}
	if err := jn.appendSubmitted("job-1", &req, true); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	if err := jn.appendSubmitted("job-2", &req, true); !errors.Is(err, errJournalClosed) {
		t.Errorf("appendSubmitted after close: %v, want errJournalClosed", err)
	}
	if err := jn.appendFinished("job-1", &Result{}, "", ""); !errors.Is(err, errJournalClosed) {
		t.Errorf("appendFinished after close: %v, want errJournalClosed", err)
	}
	if err := jn.close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// appendSubmitted appends a job's submitted record the way Submit does, synced
// before it returns when durable is set.
func (j *journal) appendSubmitted(id string, req *Request, durable bool) error {
	return j.appendJob(journalRecord{Type: recSubmitted, ID: id}, req, progOf(req), durable)
}

// progOf is the program a test journals req's text by; nil without req.
func progOf(req *Request) *program {
	if req == nil {
		return nil
	}
	return &program{text: req.Source}
}

// appendFinished appends a job's finish record: completed with res, else
// failed with the given error text and kind.
func (j *journal) appendFinished(id string, res *Result, errMsg, errKind string) error {
	rec := journalRecord{Type: recFailed, ID: id, Error: errMsg, Kind: errKind}
	if res != nil {
		rec = finishRecord(id, res, nil)
	}
	return j.appendJob(rec, nil, nil, false)
}
