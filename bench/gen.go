package main

import (
	"fmt"
	"time"

	"repro/internal/det"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/splash"
	"repro/internal/workload"
)

// Fixed job counts. A round is one submission of Order; sizes keep a round
// between roughly 0.3 and 1 s on two cores so a run of a few seconds holds
// enough rounds for a median.
const (
	simThreads = 4 // simulated threads of every job, the paper's machine

	coldPool = 1200 // distinct programs, each submitted once per round
	coldWarm = 100  // further distinct programs, run once after service.New

	hotPool      = 16 // detload's default pool: fits every cache
	hotWarm      = 400
	hotHTTPRound = 2000
	durableRound = 2500 // 5000 journal records: crosses JournalCompactEvery

	n3Programs = 64
	n3Perturbs = 16 // 64 × 16 = 1024 result keys > one node's 512-entry cache
	n3Warm     = 10000
	n3Round    = 20000
	n3Detour   = 4 // every 4th job is sent to the node after the key's owner

	racePasses = 20 // the five-cell race grid is run this many times per round
)

// poolSeed generates the program texts, whatever --seed is. Generated sources
// are heavy-tailed in size (the mean of a 16-program pool varies by half
// between seeds, of a 1300-program pool by 6 %), and every cost here follows
// size, so seeded texts would make each metric a measure of the draw. The
// seed instead sets every request's PerturbSeed, which moves its result key
// (and so its ring owner), its physical timings and its cycle counts but not
// its cost, and the order requests are submitted in.
const poolSeed = 1

// stream is a workload's generated input: the distinct requests, the
// reference core of each, and the order they are submitted in. It is a pure
// function of the workload name and the seed.
type stream struct {
	Reqs   []service.Request
	Want   []resultCore
	Instrs []int64 // simulated instructions behind each request's result
	Warm   []int   // submitted once, untimed, after each set-up
	Order  []int   // one timed round, as indexes into Reqs

	// Cells is set for the grid workloads, which drive harness.Runner rather
	// than a service: Order then indexes Cells, and Reqs holds the cells a
	// service request can express, for the traced pass.
	Cells     []cell
	WantCells []cellResult

	synthS float64 // generator time inside prep, reported as workload.synth_s
}

// cell is one simulation of the paper's grid.
type cell struct {
	Bench  int // index into splash.Names()
	Preset string
	Mode   harness.Mode
	Chunk  int64
	Race   bool
}

func buildStream(name string, seed int64) (*stream, error) {
	rng := workload.NewPartitionedRNG(seed)
	switch name {
	case "sweep":
		return gridStream(rng, sweepCells())
	case "race":
		var cells []cell
		for b := range splash.Names() {
			cells = append(cells, cell{Bench: b, Preset: "all", Mode: harness.ModeDet, Race: true})
		}
		return gridStream(rng, cells)
	case "cold":
		s, err := poolStream(seed, coldPool+coldWarm, 1)
		if err != nil {
			return nil, err
		}
		// The last coldWarm surviving programs warm the fresh service; the
		// rest are the round, in seeded order.
		n := len(s.Reqs) - coldWarm
		for i := range s.Reqs {
			if i < n {
				s.Order = append(s.Order, i)
			} else {
				s.Warm = append(s.Warm, i)
			}
		}
		shuffle(rng.Stream(workload.ClassMix), s.Order)
		return s, nil
	case "hot_http", "durable":
		s, err := poolStream(seed, hotPool, 1)
		if err != nil {
			return nil, err
		}
		round := hotHTTPRound
		if name == "durable" {
			round = durableRound
		}
		s.draw(rng, hotWarm, round)
		return s, nil
	case "n3":
		s, err := poolStream(seed, n3Programs, n3Perturbs)
		if err != nil {
			return nil, err
		}
		s.draw(rng, n3Warm, n3Round)
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// poolStream synthesizes `programs` distinct blend-mix programs, expands each
// into `perturbs` requests differing in PerturbSeed, and keeps the requests
// the reference pipeline completes, so that no generated job can fail.
func poolStream(seed int64, programs, perturbs int) (*stream, error) {
	spec, err := workload.MixByName("blend")
	if err != nil {
		return nil, err
	}
	spec.PoolSize, spec.Threads = programs, simThreads
	start := time.Now()
	mix, err := workload.Synthesize(workload.NewPartitionedRNG(poolSeed), spec)
	if err != nil {
		return nil, err
	}
	s := &stream{synthS: time.Since(start).Seconds()}
	var reqs []service.Request
	for _, p := range mix.Progs {
		for k := 0; k < perturbs; k++ {
			reqs = append(reqs, service.Request{Source: p.Source, Threads: p.Threads,
				PerturbSeed: seed*int64(perturbs) + int64(k)})
		}
	}
	want, instrs, errs := oracleAll(reqs, 2)
	for i, r := range reqs {
		if errs[i] == nil {
			s.Reqs = append(s.Reqs, r)
			s.Want = append(s.Want, want[i])
			s.Instrs = append(s.Instrs, instrs[i])
		}
	}
	if len(s.Reqs) == 0 {
		return nil, fmt.Errorf("no generated program passes the reference pipeline")
	}
	return s, nil
}

// draw fills Warm and Order with uniform picks from the mix stream. The
// warm-up first touches every request once so the caches start full.
func (s *stream) draw(rng *workload.PartitionedRNG, warm, round int) {
	r := rng.Stream(workload.ClassMix)
	for i := range s.Reqs {
		s.Warm = append(s.Warm, i)
	}
	for len(s.Warm) < warm {
		s.Warm = append(s.Warm, r.IntN(len(s.Reqs)))
	}
	for len(s.Order) < round {
		s.Order = append(s.Order, r.IntN(len(s.Reqs)))
	}
}

// sweepCells lists the simulations behind Table I (baseline plus clocks-only
// and deterministic runs of six presets) and Table II (baseline, DetLock and
// the Kendo chunk sweep), for each of the five programs.
func sweepCells() []cell {
	var cells []cell
	chunks := harness.NewRunner().KendoChunks
	for b := range splash.Names() {
		cells = append(cells, cell{Bench: b, Preset: "none", Mode: harness.ModeBaseline})
		for _, k := range harness.PresetKeys() {
			cells = append(cells,
				cell{Bench: b, Preset: k, Mode: harness.ModeClocksOnly},
				cell{Bench: b, Preset: k, Mode: harness.ModeDet})
		}
		cells = append(cells,
			cell{Bench: b, Preset: "none", Mode: harness.ModeBaseline},
			cell{Bench: b, Preset: "all", Mode: harness.ModeDet})
		for _, c := range chunks {
			cells = append(cells, cell{Bench: b, Preset: "none", Mode: harness.ModeKendo, Chunk: c})
		}
	}
	return cells
}

// gridStream turns a cell list into a stream: the grid is the paper's and
// does not depend on the seed, which only shuffles the order cells run in.
func gridStream(rng *workload.PartitionedRNG, cells []cell) (*stream, error) {
	start := time.Now()
	benches := splash.All(simThreads)
	s := &stream{Cells: cells, synthS: time.Since(start).Seconds()}
	for i := range cells {
		s.Order = append(s.Order, i)
	}
	shuffle(rng.Stream(workload.ClassMix), s.Order)

	ref := harness.NewRunner()
	ref.Reference = true
	seen := map[cell]bool{}
	for _, c := range cells {
		res, err := runCell(ref, benches, c)
		if err != nil {
			return nil, fmt.Errorf("reference run of %+v: %w", c, err)
		}
		s.WantCells = append(s.WantCells, res)
		// The service form of the cell, for the traced pass: clocks-only and
		// Kendo runs are not something a service request can ask for.
		if c.Mode != harness.ModeBaseline && c.Mode != harness.ModeDet {
			continue
		}
		key := cell{Bench: c.Bench, Preset: c.Preset, Mode: c.Mode}
		if seen[key] {
			continue
		}
		seen[key] = true
		b := benches[c.Bench]
		s.Reqs = append(s.Reqs, service.Request{Source: b.Module.String(), Threads: b.Threads, Entry: b.Entry,
			Preset: c.Preset, Baseline: c.Mode == harness.ModeBaseline, Race: c.Race})
	}
	want, instrs, errs := oracleAll(s.Reqs, 2)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference pipeline on grid request %d: %w", i, err)
		}
	}
	s.Want, s.Instrs = want, instrs
	for i := range s.Reqs {
		s.Warm = append(s.Warm, i)
	}
	return s, nil
}

func shuffle(r *det.Rand, a []int) {
	for i := len(a) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		a[i], a[j] = a[j], a[i]
	}
}
