package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/estimates"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The result key is a content address that ring ownership, journals and
// peers' caches depend on: the literals below were computed on the commit
// before the keys stopped being formatted through fmt (71a39d6).
func TestKeyLiterals(t *testing.T) {
	req := Request{
		Source: "module m\nfunc main() regs 1 {\nentry:\n  ret 0\n}\n",
		Entry:  "main", Preset: "O2", Threads: 3, PerturbSeed: -42, Race: true,
	}
	text := "module m\n\nfunc main() regs 1 {\nentry:\n  ret 0\n}\n"
	if got, want := resultKey(moduleKeyState(text), &req), "ae1727bdd03da5de8f409fff2fc23038ee3e3b70dfe7e3ac0d1f9d3c10409250"; got != want {
		t.Errorf("resultKey = %s, want %s", got, want)
	}
	req.Baseline, req.Race = true, false
	if got, want := resultKey(moduleKeyState("x"), &req), "84a03aff2daa950eeaf2bd39aaefe9f20120d3a8482ab1e832dc9cb8c41fccc1"; got != want {
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
	if n := s.programs.entries.len(); n != 0 {
		t.Fatalf("%d unverifiable modules in the instrumentation cache", n)
	}
}

// referenceCore computes a request's result core without the service, on the
// reference interpreter, scheduler and race detector: code the optimized
// path the service runs (decoded streams included) does not share.
func referenceCore(t testing.TB, req Request) Result {
	t.Helper()
	if err := normalize(&req); err != nil {
		t.Fatal(err)
	}
	mod, err := ir.Parse(req.Source)
	if err != nil {
		t.Fatal(err)
	}
	costs, est := ir.DefaultCostModel(), estimates.DefaultTable()
	policy := sim.PolicyFCFS
	if !req.Baseline {
		policy = sim.PolicyDet
		opt := harness.PresetByKey(req.Preset)
		opt.Roots = []string{req.Entry}
		if _, err := core.Instrument(mod, costs, est, opt); err != nil {
			t.Fatal(err)
		}
	}
	cfg := interp.Config{
		Module: mod, Costs: costs, Estimates: est, Threads: req.Threads,
		Entry: req.Entry, JitterSeed: req.PerturbSeed, Reference: true,
	}
	if req.Race {
		cfg.Race = &interp.RaceConfig{Policy: interp.RaceFailFast, Reference: true}
	}
	mach, threads, err := interp.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.New(sim.Config{
		Policy: policy, NumLocks: mod.NumLocks, NumBarriers: mod.NumBars,
		RecordTrace: true, Observer: mach.Observer(), Reference: true,
	}, interp.Programs(threads)).Run()
	if err != nil {
		t.Fatal(err)
	}
	sched := trace.FromSim(stats.Trace)
	return Result{
		Outcome: Outcome{
			ScheduleHash: fmt.Sprintf("%016x", sched.Hash()), ScheduleLen: sched.Len(), Cycles: stats.Makespan,
			WaitCycles: stats.WaitCycles, Acquisitions: stats.Acquisitions, ClockUpdates: mach.ClockUpdates},
	}
}

// TestSharedModuleRuns runs one cached module from many jobs at once, baseline
// and instrumented: simulations do not clone it and share the entry's decoded
// streams, so under -race this fails if the interpreter or the engine writes
// to either. Every core must be the reference pipeline's.
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
				req := Request{Source: src, Baseline: baseline, PerturbSeed: int64(i)}
				res, err := s.Do(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				hashes[i] = res.ScheduleHash
				got := Result{
					Outcome: Outcome{
						ScheduleHash: res.ScheduleHash, ScheduleLen: res.ScheduleLen, Cycles: res.Cycles,
						WaitCycles: res.WaitCycles, Acquisitions: res.Acquisitions,
						ClockUpdates: res.ClockUpdates},
				}
				if want := referenceCore(t, req); !reflect.DeepEqual(got, want) {
					t.Errorf("baseline %v seed %d: core %+v, reference %+v", baseline, i, got, want)
				}
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
	if n := s.programs.entries.len(); n != 2 {
		t.Fatalf("instrumentation cache holds %d entries, want 2", n)
	}
}

// TestWarmEntryDecodesNothing: the first simulation of an entry decodes its
// module into the entry's DCache; every later one, on any worker, must find
// the streams there and allocate strictly less.
func TestWarmEntryDecodesNothing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Kill()
	req := Request{Source: splashSources(t)["radiosity"]}
	if err := normalize(&req); err != nil {
		t.Fatal(err)
	}
	simulate := func(ie *instrEntry) {
		if _, err := s.simulate(context.Background(), ie, &req); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun(1, f) calls f twice, once to warm up: two fresh entries.
	var fresh []*instrEntry
	for range 2 {
		ie, hit, err := s.instrumented(&req, nil, new(StageLatency))
		if err != nil || hit {
			t.Fatalf("hit %v, err %v", hit, err)
		}
		fresh = append(fresh, ie)
		p, _ := s.programs.get(&req, false)
		s.programs.mu.Lock()
		s.programs.entries.remove(instrKeyOf(p, &req))
		s.programs.mu.Unlock()
	}
	warmEntry := fresh[0]
	cold := testing.AllocsPerRun(1, func() {
		simulate(fresh[0])
		fresh = fresh[1:]
	})
	warm := testing.AllocsPerRun(5, func() { simulate(warmEntry) })
	if warm >= cold {
		t.Fatalf("warm simulation allocates %.0f, the entry's first %.0f", warm, cold)
	}
	t.Logf("allocations per simulation: first %.0f, warm %.0f", cold, warm)
}
