package main

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// env is what a run needs from its surroundings.
type env struct {
	tmp      string         // scratch directory inside the checkout, removed at exit
	bf       *benchmarkFile // the workloads and metrics to run and print
	detserve string         // the detserve binary built from root
	log      io.Writer      // progress, never results

	mu       sync.Mutex
	children map[*child]bool // detserve processes to stop if the run is interrupted
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: "+format+"\n", args...)
}

func (e *env) track(c *child, live bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if live {
		e.children[c] = true
	} else {
		delete(e.children, c)
	}
}

// pin is pinToOneCPU for a session that must run either way: if the
// processor cannot be had, the run says so and goes on unpinned.
func (e *env) pin() (unpin func()) {
	unpin, err := pinToOneCPU()
	if err != nil {
		e.logf("not pinned to one processor: %v", err)
		return func() {}
	}
	return unpin
}

func (e *env) stopChildren() {
	e.mu.Lock()
	var cs []*child
	for c := range e.children {
		cs = append(cs, c)
	}
	e.mu.Unlock()
	for _, c := range cs {
		c.close()
	}
}

// prepared is a workload with its inputs generated and its oracle computed:
// everything the benchmark does before it first calls the system under test.
type prepared struct {
	name  string
	s     *stream
	prepS float64
	// fresh marks the workload whose round uses up the set-up (cold caches):
	// it sets up again before every round.
	fresh bool
	open  func() (session, error)
}

func prepare(e *env, name string, seed int64) (*prepared, error) {
	start := time.Now()
	s, err := buildStream(name, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", name, err)
	}
	p := &prepared{name: name, s: s, prepS: time.Since(start).Seconds()}
	switch name {
	case "sweep", "race":
		p.open = func() (session, error) { return openGrid(e, name, s) }
	case "cold":
		p.fresh = true
		p.open = func() (session, error) {
			return openSession(s, clients, func() (target, error) { return openInproc(e, s.Reqs, false) })
		}
	case "durable":
		p.open = func() (session, error) {
			return openSession(s, clients, func() (target, error) { return openInproc(e, s.Reqs, true) })
		}
	case "hot_http":
		p.open = func() (session, error) {
			return openSession(s, httpClients, func() (target, error) { return startChild(e, s.Reqs) })
		}
	case "n3":
		p.open = func() (session, error) {
			return openSession(s, clients, func() (target, error) { return openN3(s.Reqs) })
		}
	}
	return p, nil
}

// measured is one pass's measurements: per metric, one value per round (per
// set-up for setup_s). The untraced pass's times are nominal (calib.go).
type measured struct {
	attempted, failed int
	samples           map[string][]float64
	hostSpeed         float64 // calib.go: the host against the nominal machine, median over the run
}

func (m *measured) add(name string, v float64) { m.samples[name] = append(m.samples[name], v) }

const (
	minRounds = 3
	setupReps = 5 // set-ups per run when one set-up serves every round
)

// measure is the untraced pass: it sets the workload up, runs rounds for
// `seconds`, and checks every result. defs are the end-to-end metrics, whose
// units say which samples are times.
func measure(p *prepared, defs []metricDef, seconds float64) (*measured, error) {
	m := &measured{samples: map[string][]float64{}}
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	var host probes
	var cur session
	reopen := func() error {
		if cur != nil {
			// A set-up that served no round has nothing to verify.
			err := cur.close()
			if p.fresh {
				err = closeVerified(cur)
			}
			cur = nil
			if err != nil {
				return err
			}
		}
		var dur time.Duration
		speed, err := host.around(func() error {
			start := time.Now()
			s, err := p.open()
			dur, cur = time.Since(start), s
			return err
		})
		if err != nil {
			cur = nil
			return fmt.Errorf("%s: set-up: %w", p.name, err)
		}
		m.add("setup_s", nominal(units["setup_s"], dur.Seconds(), speed))
		return nil
	}
	defer func() {
		if cur != nil {
			cur.close()
		}
	}()

	reps := setupReps
	if p.fresh {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if err := reopen(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		if p.fresh && r > 0 {
			if err := reopen(); err != nil {
				return nil, err
			}
		}
		var st roundStats
		speed, err := host.around(func() (err error) {
			st, err = cur.round(nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", p.name, r, err)
		}
		m.attempted += st.jobs
		m.failed += st.failed
		for name, v := range map[string]float64{
			"jobs_per_s":       float64(st.jobs-st.failed) / st.dur.Seconds(),
			"sim_mips":         float64(st.instrs) / st.dur.Seconds() / 1e6,
			"p50_ms":           percentile(st.lat, 50),
			"p95_ms":           percentile(st.lat, 95),
			"pass_s":           st.dur.Seconds(),
			"alloc_kb_per_job": float64(st.allocBytes) / 1024 / float64(st.jobs),
		} {
			m.add(name, nominal(units[name], v, speed))
		}
	}
	err := closeVerified(cur)
	cur = nil
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	m.hostSpeed = host.speed()
	return m, nil
}

func closeVerified(s session) error {
	verr := s.verify()
	if err := s.close(); err != nil && verr == nil {
		verr = err
	}
	return verr
}
