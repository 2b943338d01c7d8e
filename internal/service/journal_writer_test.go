package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/trace"
)

// journalWriterGolden is what the journal writes for one fixed sequence of
// appends, every string in it holding each character class encoding/json
// escapes or replaces, followed by a rewrite's closing reservation line, and
// then what a second journal writes for two clean hits of one request named
// by their claim (writeClaimSequence).
//
// The file is never regenerated from the code under test. Its lines up to
// the reservation of job-3072 were written at b29e1af, the last commit whose
// journal encoded its records with json.Encoder, so they pin encoding/json's
// bytes. To write them again, check that commit out, copy this file there,
// delete the writeClaimSequence call and the JOURNAL_WRITER_CLAIMS_OUT
// branch, and run
//
//	JOURNAL_WRITER_OUT=$PWD/internal/service/testdata/journal_writer.golden go test -run TestJournalWriterBytes ./internal/service/
//
// which writes the file instead of comparing with it. b29e1af writes no claim
// record: the lines behind are appended by the JOURNAL_WRITER_CLAIMS_OUT
// branch, which encodes the claim sequence's records with json.Encoder, not
// with the writer (claimSequenceByEncoder).
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
	worker := &Result{JobID: "job-1", SelfChecked: true, PeerFilled: true, Remote: true, Outcome: Outcome{
		ScheduleHash: "00000000000000a1", ScheduleLen: 12, Cycles: -345, WaitCycles: 6, Acquisitions: 7,
		ClockUpdates: 1 << 40, Clockable: []string{}, Schedule: sched},
		Stage: StageLatency{ParseNS: 1, InstrumentNS: 2, SimulateNS: 3, OverheadNS: 4}}
	hit := &Result{JobID: "job-3", Cached: true, InstrCached: true, Outcome: Outcome{
		ScheduleHash: "00000000000000b4", ScheduleLen: 3, Cycles: 90,
		Clockable: []string{"main", "worker" + awkward, ""}}}
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
		if err := jn.appendJob(step.rec, step.req, progOf(step.req), step.durable); err != nil {
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

// claimedHit is the request and result of writeClaimSequence's two hits. Its
// text is awkward without the byte that is not UTF-8, which the service
// refuses before anything is journaled (TestNotUTF8Refused), so that its
// program record replays.
func claimedHit() (Request, Result) {
	return Request{Source: "module c\n; " + strings.ReplaceAll(awkward, "\xff", "") + "\n", Entry: "main" + awkward, Threads: 2, Preset: "<&>", DeadlineMS: 9,
			Artifacts: Artifacts{Stats: true}},
		Result{Cached: true, InstrCached: true, Outcome: Outcome{
			ScheduleHash: "00000000000000c1", ScheduleLen: 5, Cycles: 77,
			Clockable: []string{"worker" + awkward}}}
}

// writeClaimSequence appends two clean hits of one request to a fresh
// journal at path — the first behind its reservation, program and claim
// records, the second naming the claim alone — and returns the log.
func writeClaimSequence(t *testing.T, path string) []byte {
	t.Helper()
	jn, _, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, res := claimedHit()
	var cid string
	for _, id := range []string{"job-1", "job-2"} {
		res.JobID = id
		if cid, err = jn.appendHit(id, &req, progOf(&req), &res, cid, false); err != nil {
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
	return raw
}

// claimSequenceByEncoder is writeClaimSequence's log as json.Encoder writes
// its records, the claim's id the SHA-256 of the encoder's bytes of the claim
// with an empty id.
func claimSequenceByEncoder(t *testing.T) []byte {
	line := func(rec journalRecord) []byte {
		return frameLine(bytes.TrimSuffix(encoderBytes(t, &rec, false), []byte("\n")))
	}
	req, res := claimedHit()
	pid := programID(req.Source)
	body := req
	body.Source = ""
	claim := journalRecord{Type: recClaim, Src: pid, Req: &body, Result: &res}
	sum := sha256.Sum256(bytes.TrimSuffix(encoderBytes(t, &claim, false), []byte("\n")))
	claim.ID = "claim-" + hex.EncodeToString(sum[:])
	out := line(journalRecord{Type: recReserved, ID: jobID(reserveBlock)})
	out = append(out, line(journalRecord{Type: recProgram, ID: pid, Text: req.Source})...)
	out = append(out, line(claim)...)
	for _, id := range []string{"job-1", "job-2"} {
		out = append(out, line(journalRecord{Type: recCompleted, ID: id, Claim: claim.ID})...)
	}
	return out
}

// TestJournalWriterBytes: the journal writes encoding/json's bytes, framed,
// for every kind of record it appends.
func TestJournalWriterBytes(t *testing.T) {
	if out := os.Getenv("JOURNAL_WRITER_CLAIMS_OUT"); out != "" {
		f, err := os.OpenFile(out, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(claimSequenceByEncoder(t)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("appended the claim sequence to %s", out)
		return
	}
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
	got = append(got, writeClaimSequence(t, filepath.Join(t.TempDir(), "claims.journal"))...)
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

// TestJournalWriterClaimsReplay: the golden's claim lines, written by
// json.Encoder, replay with no damage to writeClaimSequence's two hits, each
// the claim's request and result as encoding/json carries them. A writer
// that no longer reads an older claim as intact fails here.
func TestJournalWriterClaimsReplay(t *testing.T) {
	raw, err := os.ReadFile(journalWriterGolden)
	if err != nil {
		t.Fatal(err)
	}
	end := reservationLine(3 * reserveBlock)
	i := bytes.Index(raw, end)
	if i < 0 {
		t.Fatal("the golden holds no reservation of job-3072")
	}
	claims := raw[i+len(end):]
	if scan := scanJournal(claims); scan.damaged() != 0 || len(scan.jobs) != 2 || scan.finished != 2 || len(scan.held) != 2 {
		t.Fatalf("scan: %d damaged, %d jobs, %d finished, %d held records; want 0, 2, 2, 2", scan.damaged(), len(scan.jobs), scan.finished, len(scan.held))
	}
	path := filepath.Join(t.TempDir(), "claims.journal")
	if err := os.WriteFile(path, claims, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, jobs, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	req, res := claimedHit()
	roundTrip := func(v, out any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatal(err)
		}
	}
	var wantReq Request
	roundTrip(&req, &wantReq)
	if len(jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(jobs))
	}
	for i, jj := range jobs {
		res.JobID = jobID(int64(i) + 1)
		var wantRes Result
		roundTrip(&res, &wantRes)
		if jj.id != res.JobID || !jj.done || !reflect.DeepEqual(jj.req, wantReq) || !reflect.DeepEqual(jj.result, &wantRes) {
			t.Fatalf("job %d = %s done %v %+v %+v; want %s %+v %+v", i, jj.id, jj.done, jj.req, jj.result, res.JobID, wantReq, wantRes)
		}
	}
}

// TestNotUTF8Refused: the writer replaces each byte that is not UTF-8, so a
// program text holding one would not read back as the text its program id
// hashes, and replay would quarantine the job a client was answered for. Such
// a text is refused before anything is journaled, as the same ErrBadConfig
// misuse with a journal or without, whichever entry point first meets it;
// a valid job beside it survives a restart whole.
func TestNotUTF8Refused(t *testing.T) {
	bad := Request{Source: fastProgram + "; caf\xe9\n", Threads: 1}
	for _, journaled := range []bool{false, true} {
		cfg := Config{Workers: 1}
		if journaled {
			cfg.JournalPath = filepath.Join(t.TempDir(), "journal")
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			t.Helper()
			var me *diag.MisuseError
			if !errors.As(err, &me) || !errors.Is(err, diag.ErrBadConfig) || me.ThreadID != -1 {
				t.Fatalf("journaled=%v: %s of a text that is not UTF-8: err = %v, want a configuration-level ErrBadConfig misuse", journaled, what, err)
			}
		}
		_, err = s.Do(context.Background(), bad)
		refused("Do", err)
		_, err = s.Submit(bad)
		refused("Submit", err)
		_, err = s.KeyFor(bad)
		refused("KeyFor", err)
		if n := s.programs.entries.len(); n != 0 {
			t.Fatalf("journaled=%v: %d instrumentation entries after refusals, want 0", journaled, n)
		}
		good := mustDo(t, s, Request{Source: fastProgram, Threads: 1})
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !journaled {
			continue
		}
		re, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if snap := re.Snapshot(); snap.RecoveredJobs != 1 || snap.JournalQuarantined != 0 {
			t.Fatalf("after restart: recovered_jobs %d, journal_quarantined %d, want 1 and 0", snap.RecoveredJobs, snap.JournalQuarantined)
		}
		v, err := re.Lookup(good.JobID)
		if err != nil || v.Result == nil || v.Result.Core() != good.Core() {
			t.Fatalf("Lookup(%s) after restart = %+v, %v; want its result", good.JobID, v, err)
		}
	}
}
