package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// What a job does to the service's books must not depend on which goroutine
// finishes it. testdata/hitpath_counters.golden is one fixed sequential
// stream on a journaled Workers: 1 service — misses, repeats, a second seed
// on a cached program, SelfCheckRate 0.25 under a fixed seed, an asynchronous
// Submit of a cached request, an OverheadRow request twice, a request whose
// context is already cancelled, a rejected request — as one line per job
// (id, cached / instr_cached / self_checked, overhead row present, error
// kind) followed by the end-of-stream Snapshot: every counter,
// reject_by_cause, breaker_state, both cache sizes, the journal's live and
// finished counts, the failure ring.
//
// Two fields are left out. stage_latency is wall-clock. queue_high_water is
// read right after the enqueue while the worker may already have taken the
// job (0 or 1 on any commit), and it describes the queue, which a job that
// needs no simulation has no reason to visit.
//
// The file is never regenerated from the code under test. It was written at
// a413a2b, the parent of the PR that let the submitter finish a clean hit;
// its "journal_records" alone moved since (53 → 38), when a clean hit became
// one journal record instead of two.
// After a change of the books that is meant, check out the commit whose
// bytes are the reference, copy this file there, and run
//
//	HITPATH_COUNTERS_OUT=$PWD/internal/service/testdata/hitpath_counters.golden go test -run TestHitPathCounters ./internal/service/
//
// which writes the file instead of comparing against it.
const hitPathCountersGolden = "testdata/hitpath_counters.golden"

func TestHitPathCounters(t *testing.T) {
	s := New(Config{
		Workers:       1,
		SelfCheckRate: 0.25,
		SelfCheckSeed: 7,
		JournalPath:   filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer s.Close(ctx)

	var out bytes.Buffer
	line := func(what string, res *Result, err error) {
		if err != nil {
			fmt.Fprintf(&out, "%-12s error kind=%s\n", what, Classify(err))
			return
		}
		fmt.Fprintf(&out, "%-12s %s cached=%t instr_cached=%t self_checked=%t overhead=%t\n",
			what, res.JobID, res.Cached, res.InstrCached, res.SelfChecked, res.Overhead != nil)
	}
	do := func(what string, req Request) {
		res, err := s.Do(ctx, req)
		line(what, res, err)
	}

	progs := hitPrograms(t)
	a, b := Request{Source: progs["1kB"]}, Request{Source: fastProgram, Threads: 2}
	do("miss", a)
	do("miss", b)
	for range 12 {
		do("repeat", a)
	}
	seeded := a
	seeded.PerturbSeed = 1
	do("second-seed", seeded)
	for range 4 {
		do("repeat-seed", seeded)
	}
	id, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx, id)
	line("async", res, err)
	row := a
	row.Artifacts.OverheadRow = true
	do("row", row)
	do("row", row)
	for range 4 {
		do("repeat", b)
	}

	gone, stop := context.WithCancel(ctx)
	stop()
	if _, err = s.Do(gone, a); err == nil {
		t.Fatal("Do under a cancelled context returned a result")
	}
	// Which error is a coin toss between the context's and the job's; the
	// job's own outcome is in the failure ring below.
	out.WriteString("cancelled    error\n")
	// Do gave up with its context; the job itself is done once its finish
	// record, the last thing it leaves behind, is in the journal.
	for snap := s.Snapshot(); snap.JournalFinished < snap.JournalJobs; snap = s.Snapshot() {
		if ctx.Err() != nil {
			t.Fatal("the cancelled job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	do("repeat", a)
	do("rejected", Request{})

	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "stage_latency")
	delete(fields, "queue_high_water")
	snap, err := json.MarshalIndent(fields, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out.Write(snap)
	out.WriteByte('\n')

	if path := os.Getenv("HITPATH_COUNTERS_OUT"); path != "" {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", out.Len(), path)
		return
	}
	want, err := os.ReadFile(hitPathCountersGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("the hit path's books moved\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
