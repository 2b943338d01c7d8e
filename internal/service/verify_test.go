package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/diag"
)

// journalLine frames one record the way the journal writes it.
func journalLine(t testing.TB, rec journalRecord) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frameLine(b)
}

// wrongEntryFor stages the vacuous-check scenario: svc's result cache holds,
// under the key req resolves to, a self-consistent entry that is some other
// request's outcome. Returns the normalized request and the wrong result.
func wrongEntryFor(t *testing.T, svc *Service, req Request) (Request, *Result) {
	t.Helper()
	if err := normalize(&req); err != nil {
		t.Fatal(err)
	}
	key, err := svc.KeyFor(req)
	if err != nil {
		t.Fatal(err)
	}
	donor := New(Config{Workers: 1})
	defer donor.Close(context.Background())
	other := mustDo(t, donor, Request{Source: srcOf(t, "raytrace"), Artifacts: Artifacts{Schedule: true}})
	wrong := &Result{
		Outcome: Outcome{
			Schedule: other.Schedule, ScheduleHash: fmt.Sprintf("%016x", other.Schedule.Hash()),
			ScheduleLen: other.Schedule.Len(), Cycles: other.Cycles},
	}
	if err := svc.OfferResult(key, wrong, &req); err != nil {
		t.Fatalf("installing the wrong entry through the offer path: %v", err)
	}
	if got, ok := svc.ResultByKey(key); !ok || got.ScheduleHash != wrong.ScheduleHash {
		t.Fatal("staging broke: the wrong entry is not what the cache serves")
	}
	return req, wrong
}

// TestSnapshotCheckIsCacheBlind: a journal snapshot whose completion agrees
// with a wrong result-cache entry must still be refused — the cross-check
// recomputes on this node's own core instead of asking the cache, which the
// same peer may have filled. (Before the one verifier, the check ran through
// the cached pipeline and compared the wrong hash with itself.)
func TestSnapshotCheckIsCacheBlind(t *testing.T) {
	svc := New(Config{Workers: 1, BreakerThreshold: 1})
	defer svc.Close(context.Background())
	req, wrong := wrongEntryFor(t, svc, Request{Source: srcOf(t, "ocean")})

	lines := [][]byte{
		journalLine(t, journalRecord{Type: recSubmitted, ID: "job-1", Req: &req}),
		journalLine(t, journalRecord{Type: recCompleted, ID: "job-1", Result: &Result{Outcome: Outcome{
			ScheduleHash: wrong.ScheduleHash, ScheduleLen: wrong.ScheduleLen}}}),
	}
	err := svc.CheckSnapshotRecords(context.Background(), lines)
	if !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("snapshot agreeing with a wrong cache entry: err = %v, want ErrDivergence", err)
	}
	snap := svc.Snapshot()
	if snap.Divergences != 1 || snap.BreakerTrips != 1 {
		t.Fatalf("divergences = %d, breaker trips = %d, want 1 and 1", snap.Divergences, snap.BreakerTrips)
	}
	if n := len(snap.RecentFailures); n != 1 || snap.RecentFailures[0].Kind != "divergence" || snap.RecentFailures[0].JobID != "job-1" {
		t.Fatalf("recent failures = %+v, want one divergence under job-1", snap.RecentFailures)
	}

	// The honest completion for the same request passes, wrong cache or not.
	ref := New(Config{Workers: 1})
	defer ref.Close(context.Background())
	honest := mustDo(t, ref, req)
	lines[1] = journalLine(t, journalRecord{Type: recCompleted, ID: "job-1", Result: &Result{Outcome: Outcome{ScheduleHash: honest.ScheduleHash}}})
	if err := svc.CheckSnapshotRecords(context.Background(), lines); err != nil {
		t.Fatalf("honest snapshot refused: %v", err)
	}
}

// TestSnapshotCheckRefusesDamage: the snapshot's lines go through the
// journal's own scanner, and whatever recovery would quarantine or truncate
// is a typed corruption here — counted nowhere as a divergence.
func TestSnapshotCheckRefusesDamage(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	req := Request{Source: srcOf(t, "ocean")}
	sub := journalLine(t, journalRecord{Type: recSubmitted, ID: "job-1", Req: &req})
	done := journalLine(t, journalRecord{Type: recCompleted, ID: "job-1", Result: &Result{Outcome: Outcome{ScheduleHash: "00"}}})
	flipped := append([]byte(nil), sub...)
	flipped[len(flipped)-3] ^= 0x01
	pid := programID(req.Source)
	program := journalLine(t, journalRecord{Type: recProgram, ID: pid, Text: req.Source})
	named := journalLine(t, journalRecord{Type: recSubmitted, ID: "job-1", Src: pid, Req: &Request{Threads: 4}})
	if err := svc.CheckSnapshotRecords(context.Background(), [][]byte{program, named}); err != nil {
		t.Fatalf("a program and its user: %v", err)
	}
	for name, lines := range map[string][][]byte{
		"flipped payload byte":  {flipped, done},
		"unframed line":         {[]byte(`{"type":"submitted","id":"job-1","req":{"source":"module m"}}` + "\n")},
		"finish without submit": {done},
		"torn final line":       {sub, bytes.TrimRight(done, "\n")},
		"missing program":       {named, done},
		"user before program":   {named, program},
		"program and text":      {program, journalLine(t, journalRecord{Type: recSubmitted, ID: "job-1", Src: pid, Req: &req})},
	} {
		if err := svc.CheckSnapshotRecords(context.Background(), lines); !errors.Is(err, diag.ErrCorruption) {
			t.Errorf("%s: err = %v, want ErrCorruption", name, err)
		}
	}
	if snap := svc.Snapshot(); snap.Divergences != 0 {
		t.Fatalf("damaged snapshots counted %d divergences", snap.Divergences)
	}
}

// TestSnapshotCheckTakesHitRequest: a clean hit is journaled as one finish
// record that carries its request, and the check recomputes it from that
// request. A payload of such jobs passes; with one schedule hash tampered it
// is refused as a divergence, not as a failed recompute of a nil request.
func TestSnapshotCheckTakesHitRequest(t *testing.T) {
	ref := New(Config{Workers: 1})
	defer ref.Close(context.Background())
	src := srcOf(t, "ocean")
	pid := programID(src)
	lines := [][]byte{journalLine(t, journalRecord{Type: recProgram, ID: pid, Text: src})}
	for seed := range int64(2) {
		res := mustDo(t, ref, Request{Source: src, PerturbSeed: seed})
		lines = append(lines, journalLine(t, journalRecord{Type: recCompleted, ID: jobID(seed + 1), Src: pid,
			Req: &Request{PerturbSeed: seed}, Result: &Result{Outcome: Outcome{ScheduleHash: res.ScheduleHash}}}))
	}
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	if err := svc.CheckSnapshotRecords(context.Background(), lines); err != nil {
		t.Fatalf("one-record jobs refused: %v", err)
	}
	payload, err := unframeLine(bytes.TrimSuffix(lines[2], []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Result.ScheduleHash = "00000000000000ff"
	lines[2] = journalLine(t, rec)
	if err := svc.CheckSnapshotRecords(context.Background(), lines); !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("a tampered one-record job: err = %v, want ErrDivergence", err)
	}
	if snap := svc.Snapshot(); snap.Divergences != 1 {
		t.Fatalf("divergences = %d, want 1", snap.Divergences)
	}
}

// TestRecheckReplacesWrongEntry: the repair recheck recomputes around the
// suspect entry, replaces it with the recompute and accounts one divergence
// in the ring's "corruption" kind; a second recheck finds the repaired entry
// sound.
func TestRecheckReplacesWrongEntry(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	req, wrong := wrongEntryFor(t, svc, Request{Source: srcOf(t, "ocean")})
	key, _ := svc.KeyFor(req)

	err := svc.RecheckResult(context.Background(), key)
	var ce *diag.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("recheck of a wrong entry: err = %v, want *diag.CorruptionError", err)
	}
	snap := svc.Snapshot()
	if snap.Divergences != 1 || len(snap.RecentFailures) != 1 || snap.RecentFailures[0].Kind != "corruption" {
		t.Fatalf("divergences = %d, failures = %+v, want 1 and one corruption record", snap.Divergences, snap.RecentFailures)
	}
	got, ok := svc.ResultByKey(key)
	if !ok || got.ScheduleHash == wrong.ScheduleHash {
		t.Fatalf("wrong entry not replaced: ok=%v hash=%s", ok, got.ScheduleHash)
	}
	if err := svc.RecheckResult(context.Background(), key); err != nil {
		t.Fatalf("recheck of the repaired entry: %v", err)
	}
}
