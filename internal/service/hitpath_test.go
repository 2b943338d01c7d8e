package service

import (
	"context"
	"os"
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

// BenchmarkDoHit is a result-cache hit through Do. The two sizes should read
// about the same: a hit costs the request's configuration, not its text.
func BenchmarkDoHit(b *testing.B) {
	for _, name := range []string{"1kB", "36kB"} {
		src := hitPrograms(b)[name]
		b.Run(name, func(b *testing.B) {
			s := New(Config{Workers: 1})
			defer s.Kill()
			req := Request{Source: src}
			mustDo(b, s, req)
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := s.Do(context.Background(), req); err != nil || !res.Cached {
					b.Fatalf("res %+v, err %v", res, err)
				}
			}
		})
	}
}

// TestHitAllocs pins the allocations of one hit, submit to result, at what
// the commit before the hit path stopped hashing program texts measured
// (5edbeb0: 16 for both sizes; 14 when this was written).
func TestHitAllocs(t *testing.T) {
	for name, src := range hitPrograms(t) {
		s := New(Config{Workers: 1})
		req := Request{Source: src}
		mustDo(t, s, req)
		got := testing.AllocsPerRun(200, func() { mustDo(t, s, req) })
		s.Kill()
		if got > 16 {
			t.Errorf("%s: %.0f allocations per hit, want <= 16", name, got)
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
