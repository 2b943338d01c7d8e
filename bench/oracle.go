package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/estimates"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// resultCore is the part of a job's result that determinism fixes: any two
// executions of the same request, on any topology, must agree on it.
type resultCore struct {
	Hash         string
	Len          int
	Cycles       int64
	WaitCycles   int64
	Acquisitions int64
	ClockUpdates int64
}

func coreOf(r *service.Result) resultCore {
	return resultCore{r.ScheduleHash, r.ScheduleLen, r.Cycles, r.WaitCycles, r.Acquisitions, r.ClockUpdates}
}

// withDefaults fills the fields a request may leave empty, as the service's
// own normalisation does.
func withDefaults(req service.Request) service.Request {
	if req.Threads == 0 {
		req.Threads = simThreads
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	if req.Preset == "" {
		req.Preset = "all"
	}
	return req
}

// oracle computes a request's expected core without the service: it calls
// the layers directly, on the reference implementations of the interpreter,
// the scheduler and the race detector, so the optimized paths the service
// runs are checked against code they do not share. instrs is how many
// simulated instructions the run retired, which a service result does not say.
func oracle(req service.Request) (want resultCore, instrs int64, err error) {
	req = withDefaults(req)
	mod, err := ir.Parse(req.Source)
	if err != nil {
		return resultCore{}, 0, err
	}
	costs, est := ir.DefaultCostModel(), estimates.DefaultTable()
	if !req.Baseline {
		opt := harness.PresetByKey(req.Preset)
		opt.Roots = []string{req.Entry}
		if _, err := core.Instrument(mod, costs, est, opt); err != nil {
			return resultCore{}, 0, err
		}
	}
	cfg := interp.Config{
		Module: mod, Costs: costs, Estimates: est,
		Threads: req.Threads, Entry: req.Entry,
		JitterSeed: req.PerturbSeed, Reference: true,
	}
	if req.Race {
		cfg.Race = &interp.RaceConfig{Policy: interp.RaceFailFast, Reference: true}
	}
	mach, threads, err := interp.NewMachine(cfg)
	if err != nil {
		return resultCore{}, 0, err
	}
	policy := sim.PolicyDet
	if req.Baseline {
		policy = sim.PolicyFCFS
	}
	stats, err := sim.New(sim.Config{
		Policy: policy, NumLocks: mod.NumLocks, NumBarriers: mod.NumBars,
		RecordTrace: true, Observer: mach.Observer(), Reference: true,
	}, interp.Programs(threads)).Run()
	if err != nil {
		return resultCore{}, 0, err
	}
	sched := trace.FromSim(stats.Trace)
	return resultCore{
		Hash: fmt.Sprintf("%016x", sched.Hash()), Len: sched.Len(),
		Cycles: stats.Makespan, WaitCycles: stats.WaitCycles,
		Acquisitions: stats.Acquisitions, ClockUpdates: mach.ClockUpdates,
	}, mach.InstrsExecuted, nil
}

// oracleAll computes every request's core on `workers` goroutines. errs[i]
// is non-nil for a request the reference pipeline itself refuses.
func oracleAll(reqs []service.Request, workers int) (want []resultCore, instrs []int64, errs []error) {
	want = make([]resultCore, len(reqs))
	instrs = make([]int64, len(reqs))
	errs = make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want[i], instrs[i], errs[i] = oracle(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return want, instrs, errs
}
