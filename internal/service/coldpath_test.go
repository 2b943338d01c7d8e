package service

import (
	"context"
	"sync"
	"testing"
)

// The cache keys are content addresses that ring ownership, journals and
// peers' caches depend on: the literals below were computed on the commit
// before the keys stopped being formatted through fmt (71a39d6).
func TestKeyLiterals(t *testing.T) {
	req := Request{
		Source: "module m\nfunc main() regs 1 {\nentry:\n  ret 0\n}\n",
		Entry:  "main", Preset: "O2", Threads: 3, PerturbSeed: -42, Race: true,
	}
	text := "module m\n\nfunc main() regs 1 {\nentry:\n  ret 0\n}\n"
	if got, want := instrKey(&req), "3ad0c5a942cf3de1ac606b0cf1b43f8a3d6913f165fd990119af0f231ca0d192"; got != want {
		t.Errorf("instrKey = %s, want %s", got, want)
	}
	if got, want := resultKey(text, &req), "ae1727bdd03da5de8f409fff2fc23038ee3e3b70dfe7e3ac0d1f9d3c10409250"; got != want {
		t.Errorf("resultKey = %s, want %s", got, want)
	}
	req.Baseline, req.Race = true, false
	if got, want := instrKey(&req), "09bca99f92e506de7548677efc08c9caaf9cde9f767cac0c28f358246d2b2ba0"; got != want {
		t.Errorf("baseline instrKey = %s, want %s", got, want)
	}
	if got, want := resultKey("x", &req), "84a03aff2daa950eeaf2bd39aaefe9f20120d3a8482ab1e832dc9cb8c41fccc1"; got != want {
		t.Errorf("baseline resultKey = %s, want %s", got, want)
	}
}

// TestVerifyAtInsertion drives modules that do not verify through Do. Every
// module the engine runs was verified when its cache entry was built — by
// core.Instrument, or for baseline jobs by the service — so a failing module
// must be refused there, with the error text clients saw when the check ran
// per simulation, and must not be cached.
func TestVerifyAtInsertion(t *testing.T) {
	const (
		undefGlobal  = "module m\nfunc main() regs 1 {\nentry:\n  r0 = load g[0]\n  ret r0\n}\n"
		unterminated = "module m\nfunc main() regs 1 {\nentry:\n  jmp exit\n}\n"
	)
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"instrumented", Request{Source: undefGlobal},
			`service: instrument: core: module does not verify: main.entry: load of undefined global "g"`},
		{"baseline", Request{Source: undefGlobal, Baseline: true},
			`service: interp: main.entry: load of undefined global "g"`},
		{"instrumented, no terminator", Request{Source: unterminated},
			`service: instrument: core: module does not verify: main.exit: jmp with 0 successors`},
		// Used to panic in the printer (contained, retried, reported as
		// retries_exhausted): the text was printed before anything verified.
		{"baseline, no terminator", Request{Source: unterminated, Baseline: true},
			`service: interp: main.exit: jmp with 0 successors`},
	}
	s := New(Config{Workers: 1})
	defer s.Kill()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for range 2 { // nothing about the failure is cached
				_, err := s.Do(context.Background(), tc.req)
				if err == nil || err.Error() != tc.want || Classify(err) != "error" {
					t.Fatalf("err = %v (class %q), want %q (class \"error\")", err, Classify(err), tc.want)
				}
			}
		})
	}
	if n := s.instr.len(); n != 0 {
		t.Fatalf("%d unverifiable modules in the instrumentation cache", n)
	}
}

// TestSharedModuleRuns runs one cached module from many jobs at once, baseline
// and instrumented: simulations no longer clone it, so under -race this
// fails if the interpreter or the engine writes to a module.
func TestSharedModuleRuns(t *testing.T) {
	s := New(Config{Workers: 4, SelfCheckRate: 1})
	defer s.Kill()
	src := splashSources(t)["radiosity"]
	for _, baseline := range []bool{false, true} {
		var wg sync.WaitGroup
		hashes := make([]string, 16)
		for i := range hashes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Distinct seeds: each job misses the result cache and
				// simulates on the one cached module.
				res, err := s.Do(context.Background(), Request{Source: src, Baseline: baseline, PerturbSeed: int64(i)})
				if err != nil {
					t.Error(err)
					return
				}
				hashes[i] = res.ScheduleHash
			}()
		}
		wg.Wait()
		if !baseline {
			for _, h := range hashes[1:] {
				if h != hashes[0] {
					t.Fatalf("schedule hash differs across perturbation seeds: %v", hashes)
				}
			}
		}
	}
	if n := s.instr.len(); n != 2 {
		t.Fatalf("instrumentation cache holds %d entries, want 2", n)
	}
}
