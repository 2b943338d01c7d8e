package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
)

// hitPrograms are the two text sizes the hit path is measured on: the
// histogram example (the size of a generated pool program) and the radiosity
// text the paper's sweep submits.
func hitPrograms(t testing.TB) map[string]string {
	t.Helper()
	small, err := os.ReadFile("../../examples/programs/histogram.dir")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{"1kB": string(small), "36kB": splashSources(t)["radiosity"]}
}

// raceEnabled says the test binary was built with -race (race_test.go).
var raceEnabled bool

// BenchmarkDoHit is a result-cache hit through Do. The two sizes should read
// about the same: a hit costs the request's configuration, not its text.
// seeds=16 cycles sixteen consecutive PerturbSeeds of the 1 kB program, the
// shape of the benchmark's n3 pool: each takes its own key-memo slot, so it
// should read as 1kB does. seeds=32 cycles thirty-two, two to a slot, so
// every hit finds the other seed's key there and digests its own: the memo's
// collision path.
func BenchmarkDoHit(b *testing.B) {
	for _, c := range []struct {
		name, size string
		seeds      int
	}{{"1kB", "1kB", 1}, {"36kB", "36kB", 1}, {"seeds=16", "1kB", keySlots}, {"seeds=32", "1kB", 2 * keySlots}} {
		src := hitPrograms(b)[c.size]
		b.Run(c.name, func(b *testing.B) {
			s := New(Config{Workers: 1})
			defer s.Kill()
			reqs := make([]Request, c.seeds)
			for i := range reqs {
				reqs[i] = Request{Source: src, PerturbSeed: int64(i)}
				mustDo(b, s, reqs[i])
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := s.Do(context.Background(), reqs[i%len(reqs)]); err != nil || !res.Cached {
					b.Fatalf("res %+v, err %v", res, err)
				}
			}
		})
	}
}

// BenchmarkDoHitJournaled is the 1 kB hit on a journaled service. Its one
// record is written and does not wait for the disk alone: syncs/op is the
// share of a commit one hit pays for, 1 record in JournalFsyncEvery (0.0625
// at the default 16; 0.125 while a hit was a submitted and a finish record, 1
// before a hit's submit record joined the batch). journal-B/op is what the
// log grows by per hit, measured through Close: a completed record naming
// the hit's claim, 134 bytes a hit at -benchtime 1000x (464 while the record
// carried the request and the result itself). repeat sends one request, as
// durable does; deadlines=8 cycles eight deadlines on one result entry, so
// the entry's one-request claim memo misses on every hit and each hit
// digests its claim (the log already holds all eight).
func BenchmarkDoHitJournaled(b *testing.B) {
	for _, bc := range []struct {
		name      string
		deadlines int64
	}{{"repeat", 1}, {"deadlines=8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			fsys := newGateFS()
			path := filepath.Join(b.TempDir(), "journal.jsonl")
			s, err := Open(Config{Workers: 1, JournalPath: path, FS: fsys})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Kill()
			reqs := make([]Request, bc.deadlines)
			for i := range reqs {
				reqs[i] = Request{Source: hitPrograms(b)["1kB"], DeadlineMS: 1000 * int64(i)}
			}
			mustDo(b, s, reqs[0])
			for _, req := range reqs {
				mustDo(b, s, req) // the first hit of each writes its claim
			}
			logged := func() int64 {
				info, err := os.Stat(path)
				if err != nil {
					b.Fatal(err)
				}
				s.journal.mu.Lock()
				defer s.journal.mu.Unlock()
				return info.Size() + int64(len(s.journal.pending))
			}
			b.ReportAllocs()
			b.ResetTimer()
			before, bytesBefore := fsys.syncs.Load(), logged()
			for i := 0; i < b.N; i++ {
				if res, err := s.Do(context.Background(), reqs[i%len(reqs)]); err != nil || !res.Cached {
					b.Fatalf("res %+v, err %v", res, err)
				}
			}
			b.StopTimer()
			syncs := fsys.syncs.Load() - before
			if err := s.Close(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
			b.ReportMetric(float64(logged()-bytesBefore)/float64(b.N), "journal-B/op")
		})
	}
}

// BenchmarkJournalRecord frames a clean hit's finish record, the one record a
// journaled hit appends, through json.Encoder (what the journal encoded with
// before its record writer) and through the writer, in one process.
func BenchmarkJournalRecord(b *testing.B) {
	res := &Result{JobID: "job-123456", Cached: true, InstrCached: true, ScheduleHash: "0123456789abcdef",
		ScheduleLen: 22, Cycles: 2731, WaitCycles: 412, Acquisitions: 22, ClockUpdates: 187, Clockable: []string{"worker", "main"}}
	rec := finishRecord(res.JobID, res, nil)
	rec.Src = programID(hitPrograms(b)["1kB"])
	rec.Req = &Request{Threads: 4, Preset: "all", PerturbSeed: 3, Artifacts: Artifacts{Stats: true}}
	want := frameLine(bytes.TrimSuffix(encoderBytes(b, &rec, false), []byte("\n")))
	var line []byte
	b.Run("encoder", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		b.ReportAllocs()
		for range b.N {
			buf.Reset()
			if err := enc.Encode(&rec); err != nil {
				b.Fatal(err)
			}
			line = appendFrame(line[:0], bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
		}
	})
	b.Run("writer", func(b *testing.B) {
		var out []byte
		b.ReportAllocs()
		for range b.N {
			w := jsonWriter{b: out[:0]}
			rec.writeJSON(&w)
			out = w.b
			line = appendFrame(line[:0], out)
		}
		if !bytes.Equal(line, want) {
			b.Fatalf("the writer framed\n%s\nthe encoder\n%s", line, want)
		}
	})
}

// BenchmarkDoHitParallel is the same hit from every processor at once. A hit
// is finished by its submitter, so what submitters wait on each other for is
// the two short s.mu sections (id, finish) and the caches' own locks. Moving
// the lookups under s.mu cost n3 a fifth of its throughput (DESIGN §8, *The
// hit path*); two processors are too few for this loop to show that by
// itself, so read it against BenchmarkDoHit/1kB at -cpu 1,2,4,… where there
// are more.
func BenchmarkDoHitParallel(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Kill()
	req := Request{Source: hitPrograms(b)["1kB"]}
	mustDo(b, s, req)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res, err := s.Do(context.Background(), req); err != nil || !res.Cached {
				b.Errorf("res %+v, err %v", res, err)
				return
			}
		}
	})
}

// TestHitAllocs pins the allocations of one hit, submit to result, at one
// more than measured since its entry remembers its result keys (4: the job,
// its done channel and id, the result; 8 while each hit digested its key
// again — the digest, its buffer, its sum and the hex key; 15 before the
// submitter finished hits itself, when it also built a context and woke a
// worker). A journaled hit is pinned at what it measures, 5: its one record
// is framed into the journal's own buffers, and the journal keeps nothing of
// it (9 with the digest, 10 while the journal mirrored every job it
// accepted). After 10k journaled hits of one program the journal's only
// per-job state, its unfinished set, is empty, and it holds one program
// text. The race runtime allocates in the journal's commit path, so a
// journaled hit's count holds without it only.
func TestHitAllocs(t *testing.T) {
	for name, src := range hitPrograms(t) {
		for _, journaled := range []bool{false, true} {
			cfg, limit := Config{Workers: 1}, 5.0
			if journaled {
				cfg.JournalPath, limit = filepath.Join(t.TempDir(), "journal.jsonl"), 5
			}
			s := New(cfg)
			req := Request{Source: src}
			mustDo(t, s, req)
			got := testing.AllocsPerRun(200, func() { mustDo(t, s, req) })
			if got > limit && !(journaled && raceEnabled) {
				t.Errorf("%s, journaled %v: %.0f allocations per hit, want <= %.0f", name, journaled, got, limit)
			}
			if journaled {
				for range 10_000 - 202 { // behind the miss, the warm-up and the 200 runs
					mustDo(t, s, req)
				}
				s.journal.mu.Lock()
				unfinished, texts, claims := len(s.journal.unfinished), len(s.journal.texts), len(s.journal.claims)
				s.journal.mu.Unlock()
				if jobs, _, _, _ := s.journal.snapshotLive(); jobs != 10_000 || unfinished != 0 || texts != 1 || claims != 1 {
					t.Errorf("%s: after %d journaled jobs of one request: %d unfinished, %d texts, %d claims; want 10000, 0, 1, 1",
						name, jobs, unfinished, texts, claims)
				}
			}
			s.Kill()
		}
	}
}

// TestDoSurvivesRetention: Do waits on the job it submitted. With a
// retention bound smaller than the number of jobs finishing at once, the
// record of a finished job can be gone before its submitter looks for it; the
// job succeeded all the same.
func TestDoSurvivesRetention(t *testing.T) {
	s := New(Config{Workers: 2, RetainJobs: 1})
	defer s.Kill()
	req := Request{Source: hitPrograms(t)["1kB"]}
	mustDo(t, s, req)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				if _, err := s.Do(context.Background(), req); err != nil {
					if failed.Add(1) == 1 {
						t.Errorf("Do: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of 16000 cached jobs failed", n)
	}
}

// TestEvictedEntryFreesStreams: the decoded streams of a module belong to its
// instrumentation-cache entry. Once the LRU drops the entry nothing else —
// no package-level cache, no finished job, no result entry — may keep the
// module's functions or their streams reachable.
func TestEvictedEntryFreesStreams(t *testing.T) {
	s := New(Config{Workers: 1, InstrCacheSize: 1})
	defer s.Kill()
	progs := hitPrograms(t)
	freed := make(chan string, 2)
	func() {
		req := Request{Source: progs["36kB"]}
		mustDo(t, s, req) // a miss: simulated, so the streams exist
		if err := normalize(&req); err != nil {
			t.Fatal(err)
		}
		ie, ok := s.instr.peek(instrKeyOf(&req))
		if !ok {
			t.Fatal("entry not cached")
		}
		// A function points at its module and the module at its functions,
		// and a finalizer on a member of a cycle never runs: watch a global
		// hung on the idle module instead, reachable from every function.
		watch := &ir.Global{Name: "watch"}
		ie.mod.Globals = append(ie.mod.Globals, watch)
		runtime.SetFinalizer(watch, func(any) { freed <- "module" })
		runtime.SetFinalizer(ie.decoded, func(any) { freed <- "streams" })
	}()
	mustDo(t, s, Request{Source: progs["1kB"]}) // capacity 1: evicts
	if n := s.instr.len(); n != 1 {
		t.Fatalf("instrumentation cache holds %d entries, want 1", n)
	}
	got := map[string]bool{}
	for deadline := time.After(10 * time.Second); len(got) < 2; {
		runtime.GC()
		select {
		case what := <-freed:
			got[what] = true
		case <-deadline:
			t.Fatalf("evicted entry still reachable: freed only %v", got)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// plugged is a Workers: 1 service whose only worker can be parked: plug
// submits a job that misses both caches and holds it inside the Fill hook
// until the returned release is called. While it is parked, whatever
// finishes was finished by its submitter.
type plugged struct {
	*Service
	t       *testing.T
	entered chan struct{}
	gate    chan struct{}
	plugs   int64
}

func newPlugged(t *testing.T, cfg Config) *plugged {
	p := &plugged{t: t, entered: make(chan struct{}), gate: make(chan struct{})}
	cfg.Workers = 1
	cfg.Fill = func(_ context.Context, _ string, req *Request) *Result {
		if req.PerturbSeed < 0 { // plugs are the only negative seeds
			p.entered <- struct{}{}
			<-p.gate
		}
		return nil
	}
	p.Service = New(cfg)
	t.Cleanup(p.Kill)
	return p
}

func (p *plugged) plug() (release func()) {
	p.t.Helper()
	p.plugs++
	id, err := p.Submit(Request{Source: fastProgram, Threads: 1, PerturbSeed: -p.plugs})
	if err != nil {
		p.t.Fatal(err)
	}
	<-p.entered
	return func() {
		p.t.Helper()
		p.gate <- struct{}{}
		if _, err := p.Wait(context.Background(), id); err != nil {
			p.t.Fatal(err)
		}
	}
}

func (p *plugged) status(id string) Status {
	p.t.Helper()
	v, err := p.Lookup(id)
	if err != nil {
		p.t.Fatal(err)
	}
	return v.Status
}

// TestSampledHitRunsOnWorker: the sampler decides on the submitter's
// goroutine, but the self-check it asks for is a simulation and waits for a
// worker. With the only worker parked, an unsampled hit is done when Submit
// returns and a sampled one sits in the queue; once released it comes back
// self-checked, and the two kinds add up to one draw per job.
func TestSampledHitRunsOnWorker(t *testing.T) {
	p := newPlugged(t, Config{SelfCheckRate: 0.5, SelfCheckSeed: 3})
	req := Request{Source: hitPrograms(t)["1kB"]}
	mustDo(t, p.Service, req)
	release := p.plug()
	var clean, queued []string
	for len(clean) == 0 || len(queued) == 0 {
		if len(clean)+len(queued) == 64 {
			t.Fatalf("64 hits at rate 0.5: %d finished by the submitter, %d queued", len(clean), len(queued))
		}
		id, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		switch st := p.status(id); st {
		case StatusDone:
			clean = append(clean, id)
		case StatusQueued:
			queued = append(queued, id)
		default:
			t.Fatalf("%s is %s with the worker parked", id, st)
		}
	}
	release()
	for _, id := range clean {
		if res, err := p.Wait(context.Background(), id); err != nil || !res.Cached || res.SelfChecked {
			t.Errorf("submitter-finished %s: %+v, %v", id, res, err)
		}
	}
	for _, id := range queued {
		if res, err := p.Wait(context.Background(), id); err != nil || !res.Cached || !res.SelfChecked {
			t.Errorf("queued %s: %+v, %v", id, res, err)
		}
	}
	if snap := p.Snapshot(); snap.SelfChecks != int64(len(queued)) || snap.ResultCacheHits != int64(len(clean)+len(queued)) {
		t.Errorf("self_checks %d, result_cache_hits %d; want %d and %d", snap.SelfChecks, snap.ResultCacheHits, len(queued), len(clean)+len(queued))
	}
}

// TestOverheadRowRunsOnWorker: the first overhead row of an entry is three
// simulations and waits for a worker; once the entry holds it, a request for
// it is a clean hit like any other.
func TestOverheadRowRunsOnWorker(t *testing.T) {
	p := newPlugged(t, Config{})
	req := Request{Source: hitPrograms(t)["1kB"]}
	mustDo(t, p.Service, req)
	row := req
	row.Artifacts.OverheadRow = true

	release := p.plug()
	first, err := p.Submit(row)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.status(first); st != StatusQueued {
		t.Fatalf("first overhead row is %s with the worker parked, want queued", st)
	}
	plain, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.status(plain); st != StatusDone {
		t.Fatalf("plain hit is %s with the worker parked, want done", st)
	}
	release()
	want, err := p.Wait(context.Background(), first)
	if err != nil || want.Overhead == nil {
		t.Fatalf("first overhead row: %+v, %v", want, err)
	}

	release = p.plug()
	defer release()
	second, err := p.Submit(row)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.status(second); st != StatusDone {
		t.Fatalf("cached overhead row is %s with the worker parked, want done", st)
	}
	if got, err := p.Wait(context.Background(), second); err != nil || got.Overhead != want.Overhead {
		t.Fatalf("cached overhead row: %+v, %v", got, err)
	}
}

// TestHitCountsOncePerJob: a job that found nothing when it was submitted
// and everything when a worker got to it — the entries arrived while it
// waited — counts one instrumentation hit and one result hit and draws the
// sampler once, as a job that was looked up only once always did.
func TestHitCountsOncePerJob(t *testing.T) {
	const rate, seed = 0.5, 11
	p := newPlugged(t, Config{SelfCheckRate: rate, SelfCheckSeed: seed})
	req := Request{Source: hitPrograms(t)["1kB"], Artifacts: Artifacts{Schedule: true}}
	other := New(Config{Workers: 1})
	defer other.Kill()
	computed := mustDo(t, other, req)

	release := p.plug()
	id, err := p.Submit(req) // nothing cached: queued with an empty found
	if err != nil {
		t.Fatal(err)
	}
	key, err := p.KeyFor(req) // builds the instrumentation entry
	if err != nil {
		t.Fatal(err)
	}
	if err := p.OfferResult(key, computed, &req); err != nil {
		t.Fatal(err)
	}
	before := p.Snapshot()
	release()
	res, err := p.Wait(context.Background(), id)
	if err != nil || !res.Cached || !res.InstrCached {
		t.Fatalf("res %+v, err %v; want a hit on both caches", res, err)
	}
	after := p.Snapshot()
	wantInstr := int64(1)
	if res.SelfChecked { // the recompute goes through the instrumentation cache too
		wantInstr++
	}
	if got := after.InstrCacheHits - before.InstrCacheHits; got != wantInstr {
		t.Errorf("instr_cache_hits rose by %d, want %d", got, wantInstr)
	}
	if got := after.ResultCacheHits - before.ResultCacheHits; got != 1 {
		t.Errorf("result_cache_hits rose by %d, want 1", got)
	}
	if got := after.InstrCacheMisses - before.InstrCacheMisses; got != 0 {
		t.Errorf("instr_cache_misses rose by %d, want 0", got)
	}
	ref := newSampler(rate, seed)
	if ref.sample() != res.SelfChecked {
		t.Errorf("self_checked %t is not the stream's first draw", res.SelfChecked)
	}
	if got, want := p.check.rng.Next(), ref.rng.Next(); got != want {
		t.Errorf("the sampler was not drawn exactly once: next value %d, want %d", got, want)
	}
}

// TestStealNeverLendsHit: work stealing lends what is queued, and a clean
// hit never is — there is nothing in it for a peer to compute.
func TestStealNeverLendsHit(t *testing.T) {
	p := newPlugged(t, Config{StealReclaim: time.Minute})
	req := Request{Source: hitPrograms(t)["1kB"]}
	mustDo(t, p.Service, req)
	release := p.plug()
	for range 3 {
		if _, err := p.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if lent := p.StealQueued(8); len(lent) != 0 {
		t.Fatalf("lent %d jobs with only hits submitted", len(lent))
	}
	miss := req
	miss.PerturbSeed = 1
	id, err := p.Submit(miss)
	if err != nil {
		t.Fatal(err)
	}
	lent := p.StealQueued(8)
	if len(lent) != 1 || lent[0].ID != id {
		t.Fatalf("lent %+v, want the one miss %s", lent, id)
	}
	p.CompleteStolen(id, nil) // hand it back
	release()
	if _, err := p.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

// TestDrainSeesCallerSideHit: a hit its submitter is still finishing is an
// accepted, unfinished job, and a drain must wait for it although no queue
// slot and no worker says so. The journal's shipping hook runs at the hit's
// lines, on the submitter's goroutine, before the outcome is published: the
// claim record and the record naming it for the first hit of a request, the
// record alone for the second.
func TestDrainSeesCallerSideHit(t *testing.T) {
	var s *Service
	var armed atomic.Bool
	var records, unfinished atomic.Int64
	s = New(Config{
		Workers:     1,
		JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
		ShipRecord: func([]byte) {
			if armed.Load() {
				records.Add(1)
				if !s.drained() {
					unfinished.Add(1)
				}
			}
		},
	})
	defer s.Kill()
	req := Request{Source: hitPrograms(t)["1kB"]}
	mustDo(t, s, req)
	if !s.drained() {
		t.Fatal("not drained with nothing submitted")
	}
	armed.Store(true)
	for range 2 {
		if res := mustDo(t, s, req); !res.Cached {
			t.Fatal("not a hit")
		}
	}
	// Three lines, each appended while its job is admitted and unfinished.
	if r, u := records.Load(), unfinished.Load(); r != 3 || u != 3 {
		t.Errorf("%d journal lines, drained() false at %d of them; want 3 and 3", r, u)
	}
	if !s.drained() {
		t.Fatal("not drained after the hit returned")
	}
}

// TestCloseWaitsForCallerSideHit: Close flushes and closes the journal only
// after the last submitter has finished what it was admitted with. Eight
// goroutines keep a journaled service busy with hits while it is closed:
// every id Do handed out has a durable finish record, nothing panics, and
// nothing is counted as a journal fault. On the parent a submitter that
// passed the closed check could append to a journal Close had already closed
// (a nil file: SIGSEGV), or leave its record in a buffer nobody flushed.
func TestCloseWaitsForCallerSideHit(t *testing.T) {
	for round := range 20 {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		s, err := Open(Config{Workers: 2, JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Source: fastProgram, Threads: 1}
		mustDo(t, s, req)

		var wg sync.WaitGroup
		var mu sync.Mutex
		var ids []string
		var started atomic.Int64
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					res, err := s.Do(context.Background(), req)
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Do: %v", err)
						}
						return
					}
					started.Add(1)
					mu.Lock()
					ids = append(ids, res.JobID)
					mu.Unlock()
				}
			}()
		}
		for started.Load() < int64(8+round) { // a different moment every round
			runtime.Gosched()
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if n := s.Snapshot().JournalErrors; n != 0 {
			t.Fatalf("journal_errors = %d", n)
		}

		jn, replayed, err := openJournal(nil, path, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[string]*journalJob, len(replayed))
		for _, jj := range replayed {
			byID[jj.id] = jj
		}
		for _, id := range ids {
			if jj := byID[id]; jj == nil || !jj.done || jj.result == nil {
				t.Fatalf("round %d: %s was returned by Do but its finish record is not durable: %+v", round, id, jj)
			}
		}
		// A job refused as closed after its submit record was durable must have
		// a terminal record too, or a restart would run what the client was
		// told was refused.
		for _, jj := range replayed {
			if !jj.done {
				t.Fatalf("round %d: %s has a submit record and no finish record after a clean Close", round, jj.id)
			}
		}
		jn.kill()
	}
}
