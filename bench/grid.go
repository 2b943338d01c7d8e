package main

import (
	"embed"
	"fmt"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/splash"
)

// golden holds the committed renders of Table I and Table II. They do not
// depend on the seed: the grid is the paper's.
//
//go:embed golden/table1.txt golden/table2.txt
var golden embed.FS

// cellResult is what one grid simulation must reproduce exactly.
type cellResult struct {
	Makespan, WaitCycles, Acquisitions, ClockUpdates, Instrs int64
}

func runCell(r *harness.Runner, benches []*splash.Benchmark, c cell) (cellResult, error) {
	rr := r
	if c.Race != r.RaceCheck {
		cp := *r // shares the prep and decode caches
		cp.RaceCheck = c.Race
		rr = &cp
	}
	res, err := rr.Run(benches[c.Bench], harness.PresetByKey(c.Preset), c.Mode, c.Chunk)
	if err != nil {
		return cellResult{}, err
	}
	return cellResult{res.Makespan, res.WaitCycles, res.Acquisitions, res.ClockUpdates, res.Instrs}, nil
}

// gridSession is a warmed harness.Runner: benchmarks built, every preset
// instrumented and decoded once, as after the first pass of a sweep. The
// runner has one worker, so the session holds the process to one processor
// (pinToOneCPU).
type gridSession struct {
	s       *stream
	runner  *harness.Runner
	benches []*splash.Benchmark
	passes  int
	unpin   func()
}

// openGrid is the grid workloads' set-up: build the programs, then one cold
// pass over the cells, which instruments every preset once and fills the
// runner's prep and decode caches.
func openGrid(e *env, name string, s *stream) (session, error) {
	unpin := e.pin()
	g := &gridSession{s: s, runner: harness.NewRunner(), benches: splash.All(simThreads), passes: 1, unpin: unpin}
	g.runner.Workers = 1
	if name == "race" {
		g.passes = racePasses
	}
	for i, c := range s.Cells {
		got, err := runCell(g.runner, g.benches, c)
		if err == nil && got != s.WantCells[i] {
			err = fmt.Errorf("cell %+v: got %+v, reference %+v", c, got, s.WantCells[i])
		}
		if err != nil {
			unpin()
			return nil, err
		}
	}
	return g, nil
}

// verify checks what the per-cell comparison in round does not: for the
// sweep, that the tables the optimized runner renders are the committed
// goldens (bench_test.go checks the reference render equals them too); for
// race, that turning the detector off changes no count. A race would already
// have failed the cell: the detector is fail-fast.
func (g *gridSession) verify() error {
	if g.passes > 1 {
		for i, c := range g.s.Cells {
			c.Race = false
			off, err := runCell(g.runner, g.benches, c)
			if err != nil {
				return err
			}
			if off != g.s.WantCells[i] {
				return fmt.Errorf("race cell %d: detector off %+v, on %+v", i, off, g.s.WantCells[i])
			}
		}
		return nil
	}
	t1, t2, err := renderTables(g.runner)
	if err != nil {
		return err
	}
	for file, got := range map[string]string{"table1.txt": t1, "table2.txt": t2} {
		want, err := golden.ReadFile("golden/" + file)
		if err != nil {
			return err
		}
		if got != string(want) {
			return fmt.Errorf("rendered %s differs from bench/golden/%s", file, file)
		}
	}
	return nil
}

func renderTables(r *harness.Runner) (table1, table2 string, err error) {
	t1, err := r.TableI()
	if err != nil {
		return "", "", err
	}
	t2, err := r.TableII()
	if err != nil {
		return "", "", err
	}
	return t1.Render(), t2.Render(), nil
}

func (g *gridSession) round(rec *recorder) (roundStats, error) {
	var st roundStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for p := 0; p < g.passes; p++ {
		for _, i := range g.s.Order {
			t0 := time.Now()
			got, err := runCell(g.runner, g.benches, g.s.Cells[i])
			t1 := time.Now()
			st.lat = append(st.lat, t1.Sub(t0).Seconds()*1e3)
			if rec != nil {
				rec.add(st.jobs, "harness.run", -1, t0, t1)
			}
			st.jobs++
			if err != nil || got != g.s.WantCells[i] {
				st.failed++
			} else {
				st.instrs += got.Instrs
			}
		}
	}
	st.dur = time.Since(start)
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return st, nil
}

func (g *gridSession) close() error {
	g.unpin()
	return nil
}
