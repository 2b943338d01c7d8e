package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/vfs"
)

// The journal's commit path and id reservation (journal.go's header, DESIGN
// §9): who waits for the disk, how many waiters one sync releases, and that
// no id is ever issued twice, whatever a crash or a damaged line takes away.

// gateFS is a filesystem whose files count their Syncs and, while armed,
// hold each one until the test lets it through: entered receives once per
// Sync, which then blocks on release.
type gateFS struct {
	vfs.OS
	syncs            atomic.Int64
	armed            atomic.Bool
	entered, release chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	vfs.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestWaitersShareOneSync: submitters that arrive while a sync is in flight
// append behind it and are all released by the one sync that follows, however
// many they are; nobody syncs for himself.
func TestWaitersShareOneSync(t *testing.T) {
	const waiters = 8
	g := newGateFS()
	jn, _, err := openJournal(g, filepath.Join(t.TempDir(), "journal.jsonl"), 16, journalCompactEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.kill()
	req := Request{Source: "module m"}
	g.armed.Store(true)

	var done atomic.Int64
	var wg sync.WaitGroup
	submit := func(n int) {
		defer wg.Done()
		if err := jn.appendSubmitted(jobID(int64(n)), &req, true); err != nil {
			t.Errorf("job-%d: %v", n, err)
		}
		done.Add(1)
	}
	wg.Add(1)
	go submit(1)
	<-g.entered // the first submitter is inside its Sync, journal.mu released

	wg.Add(waiters)
	for n := 2; n <= 1+waiters; n++ {
		go submit(n)
	}
	for { // every waiter has appended behind the commit in flight
		jn.mu.Lock()
		appended := jn.appended
		jn.mu.Unlock()
		if appended == 1+waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := done.Load(); n != 0 {
		t.Fatalf("%d submitters returned before any sync finished", n)
	}

	g.release <- struct{}{} // the first sync ends: one submitter is durable
	<-g.entered             // and one waiter has become the next committer
	if n := done.Load(); n != 1 {
		t.Fatalf("%d submitters returned after the first sync, want the one it covered", n)
	}
	g.armed.Store(false)
	g.release <- struct{}{}
	wg.Wait()
	if n := g.syncs.Load(); n != 2 {
		t.Fatalf("%d syncs for %d submitters, want 2: the one in flight and the one they share", n, 1+waiters)
	}
	if _, _, syncs, records := jn.snapshotLive(); syncs != 2 || records != 1+waiters {
		t.Fatalf("journal counts %d syncs, %d records; want 2 and %d", syncs, records, 1+waiters)
	}
}

// TestNoCompactionWithoutDuplicates: the reservation belongs to no job, and a
// log that holds one used to be "more than twice the live set" for ever, so
// past compactEvery every finish rewrote the whole log. Compaction removes
// duplicates; a log without any must never compact, and one with them still
// must.
func TestNoCompactionWithoutDuplicates(t *testing.T) {
	const compactEvery = 64
	jn, _, err := openJournal(nil, filepath.Join(t.TempDir(), "journal.jsonl"), 4, compactEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.kill()
	req := Request{Source: "module m"}
	const jobs = 2 * compactEvery
	for n := int64(1); n <= jobs; n++ {
		if err := jn.appendSubmitted(jobID(n), &req, n%2 == 0); err != nil {
			t.Fatal(err)
		}
		if err := jn.appendFinished(jobID(n), &Result{ScheduleHash: "aa"}, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if jn.compactions != 0 || jn.rawRecords != 2*jobs {
		t.Fatalf("%d compactions, %d job records after %d duplicate-free jobs; want 0 and %d", jn.compactions, jn.rawRecords, jobs, 2*jobs)
	}
	// Finish every job again, as a recovery's re-execution does: that is a
	// duplicate each, and the log is rewritten to one pair per job.
	for n := int64(1); n <= jobs; n++ {
		if err := jn.appendFinished(jobID(n), &Result{ScheduleHash: "bb"}, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if jn.compactions == 0 || jn.rawRecords >= 3*jobs {
		t.Fatalf("%d compactions, %d job records after every job finished twice", jn.compactions, jn.rawRecords)
	}
}

// TestRecoveredJobsObeyRetain: a restarted service keeps at most RetainJobs
// finished records, like one that never stopped: the oldest recovered
// completions are evicted, all of them are counted as recovered.
func TestRecoveredJobsObeyRetain(t *testing.T) {
	const retain, extra = 4, 3
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := range retain + extra {
		ids = append(ids, mustDo(t, s, Request{Source: fastProgram, Threads: 1, PerturbSeed: int64(i)}).JobID)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s, err = Open(Config{Workers: 1, JournalPath: path, RetainJobs: retain})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if n := s.Snapshot().RecoveredJobs; n != retain+extra {
		t.Fatalf("recovered_jobs = %d, want %d", n, retain+extra)
	}
	for _, id := range ids[:extra] {
		if _, err := s.Lookup(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("%s is older than the %d retained records: Lookup = %v, want ErrUnknownJob", id, retain, err)
		}
	}
	for _, id := range ids[extra:] {
		if v, err := s.Lookup(id); err != nil || v.Status != StatusDone {
			t.Errorf("%s: %+v, %v; want it served from the journal", id, v, err)
		}
	}
}

// TestReservationDamageNeverReusesIDs: the hits of a block's last stretch are
// buffered when the service dies, so the log's greatest id is below the ids
// Do returned, and the reservation is all that keeps the next incarnation
// from issuing them again. Then the reservation line itself is damaged —
// bit-flipped (quarantined), or cut through with everything behind it (torn)
// — and the restart must still start above every id ever returned.
func TestReservationDamageNeverReusesIDs(t *testing.T) {
	req := Request{Source: fastProgram, Threads: 1}
	for _, damage := range []string{"none", "quarantined", "torn", "both reservations quarantined"} {
		t.Run(damage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			s, err := Open(Config{Workers: 1, JournalPath: path, JournalFsyncEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			var last int64
			for range reserveBlock + 20 { // crosses into the second block
				n, ok := numericID(mustDo(t, s, req).JobID)
				if !ok || n <= last {
					t.Fatalf("id %d after %d", n, last)
				}
				last = n
			}
			s.Kill()

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			var marks []int // indices of the reservation lines (SplitAfter keeps the newlines)
			for i, line := range lines {
				if bytes.Contains(line, []byte(`"type":"reserved"`)) {
					marks = append(marks, i)
				}
			}
			if len(marks) != 2 {
				t.Fatalf("%d reservation lines in the log, want one per block entered", len(marks))
			}
			if scan := scanJournal(raw); scan.damaged() != 0 || scan.maxID != 2*reserveBlock {
				t.Fatalf("the killed service's log: %d damaged lines, mark %d", scan.damaged(), scan.maxID)
			}
			flip := func(i int) { lines[i] = bytes.Replace(lines[i], []byte("reserved"), []byte("reserveb"), 1) }
			switch damage {
			case "quarantined":
				flip(marks[1])
			case "torn":
				lines = append(lines[:marks[1]:marks[1]], lines[marks[1]][:20])
			case "both reservations quarantined":
				flip(marks[0])
				flip(marks[1])
			}
			if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
				t.Fatal(err)
			}

			// Twice: the repair must have written down what it concluded, since
			// it removed the lines it concluded it from. (The queue is deep
			// enough to admit a job behind a thousand recovery cross-checks.)
			for range 2 {
				s, err = Open(Config{Workers: 1, JournalPath: path, QueueDepth: 4 * reserveBlock})
				if err != nil {
					t.Fatal(err)
				}
				n, _ := numericID(mustDo(t, s, req).JobID)
				if n <= last {
					t.Fatalf("id %d issued after a restart; the incarnation before it returned ids up to %d", n, last)
				}
				last = n
				s.Kill()
			}
		})
	}
}

// TestJournalKillStress drives the commit path from eight goroutines at once
// — Do hits that leave their records in the buffer, Submit hits and misses
// that wait for a sync, finish records from the workers — and kills the
// service at a seeded moment. Whatever the interleaving: every id Submit
// returned is in the log, no id is issued twice across the restart, and
// nothing is left waiting on a commit that will never come.
func TestJournalKillStress(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		s, err := Open(Config{Workers: 2, JournalPath: path, JournalFsyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		hit := Request{Source: fastProgram, Threads: 1}
		mustDo(t, s, hit)

		var mu sync.Mutex
		submitted, returned := map[string]bool{}, map[string]bool{}
		var ops atomic.Int64
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := detrand.New(seed, g)
				for i := 0; ; i++ {
					var id string
					var err error
					async := false
					switch rng.IntN(4) {
					case 0:
						id, err = s.Submit(hit)
						async = true
					case 1: // a miss: its own perturbation seed
						id, err = s.Submit(Request{Source: fastProgram, Threads: 1, PerturbSeed: int64(1 + g*1_000_000 + i)})
						async = true
					default:
						var res *Result
						if res, err = s.Do(context.Background(), hit); err == nil {
							id = res.JobID
						}
					}
					if err != nil {
						return // killed: closed, or a job cancelled under its Do
					}
					ops.Add(1)
					mu.Lock()
					if returned[id] {
						t.Errorf("seed %d: %s returned twice", seed, id)
					}
					returned[id], submitted[id] = true, submitted[id] || async
					mu.Unlock()
				}
			}()
		}
		for target := int64(50 + 40*seed); ops.Load() < target; {
			time.Sleep(100 * time.Microsecond)
		}
		s.Kill()
		wg.Wait()

		s, err = Open(Config{Workers: 2, JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Snapshot().JournalQuarantined; n != 0 {
			t.Errorf("seed %d: %d quarantined lines in a log only a kill interrupted", seed, n)
		}
		for id, async := range submitted {
			if !async {
				continue
			}
			if _, err := s.Wait(context.Background(), id); err != nil {
				t.Errorf("seed %d: %s was returned by Submit and is not recovered: %v", seed, id, err)
			}
		}
		for range 3 {
			if id := mustDo(t, s, hit).JobID; returned[id] {
				t.Errorf("seed %d: %s issued again after the restart", seed, id)
			}
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRecordsOmitReservation: the reservation speaks of this node's
// ids. It opens the compacted image, and it stays out of the snapshot a peer
// bootstraps, takes a handoff or resyncs a standby from — whose check, being
// the journal's own scanner, accepts one all the same (a shipped stream holds
// them, and the prototype of this scanner refused that as a damaged line).
func TestSnapshotRecordsOmitReservation(t *testing.T) {
	s, err := Open(Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "journal.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	req := Request{Source: fastProgram, Threads: 1}
	mustDo(t, s, req)
	mustDo(t, s, req)
	lines := s.JournalSnapshotRecords()
	if len(lines) != 4 || bytes.Contains(bytes.Join(lines, nil), []byte(recReserved)) {
		t.Fatalf("snapshot of two finished jobs: %d lines: %q", len(lines), lines)
	}
	if s.journal.reserved != reserveBlock {
		t.Fatalf("the journal reserved up to %d, want %d", s.journal.reserved, reserveBlock)
	}
	peer := New(Config{Workers: 1})
	defer peer.Close(context.Background())
	withMark := append([][]byte{reservationLine(reserveBlock)}, lines...)
	if err := peer.CheckSnapshotRecords(context.Background(), withMark); err != nil {
		t.Fatalf("a snapshot holding a reservation was refused: %v", err)
	}
	bad := frameLine([]byte(`{"type":"reserved","id":"job-one"}`))
	if scan := scanJournal(bad); len(scan.quarantined) != 1 || !strings.Contains(scan.quarantined[0].reason, "job-N") {
		t.Fatalf("a reservation without a number: %+v", scan.quarantined)
	}
}

// TestFrameWriterBytes: appendFrame writes what the Sprintf it replaced
// wrote, for any payload, and into the middle of a buffer as well as into an
// empty one.
func TestFrameWriterBytes(t *testing.T) {
	rng := detrand.New(1, 1)
	buf := []byte("already here\n")
	for i := range 200 {
		payload := make([]byte, rng.IntN(1<<(i%14)))
		for k := range payload {
			payload[k] = byte(' ' + rng.IntN(95)) // no newline, as json.Marshal guarantees
		}
		want := fmt.Sprintf("#c1 %08x %d %s\n", checksum(payload), len(payload), payload)
		if got := frameLine(payload); string(got) != want {
			t.Fatalf("frameLine(%q) = %q, want %q", payload, got, want)
		}
		before := len(buf)
		if buf = appendFrame(buf, payload); string(buf[before:]) != want {
			t.Fatalf("appendFrame(%q) = %q, want %q", payload, buf[before:], want)
		}
		if got, err := unframeLine(buf[before : len(buf)-1]); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("unframeLine(%q) = %q, %v", buf[before:], got, err)
		}
	}
}
