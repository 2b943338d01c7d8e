package det

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// FaultInjector perturbs the runtime at lock boundaries. It exists for the
// robustness property tests: scheduling perturbations (Gosched storms, sleep
// jitter) must never change a schedule, a clock, or a failure report, and
// injected panics must be contained exactly like user panics. It is a
// test-only facility — production runs leave it unset, which costs a single
// nil check per lock boundary.
//
// All perturbations are physical-timing-only: the injector never touches a
// logical clock, so weak determinism of surviving runs is unaffected by
// construction, and the tests verify it.
type FaultInjector struct {
	cfg FaultInjectorConfig

	mu sync.Mutex
	// rng is per-thread deterministic state: each thread's perturbation
	// stream depends only on (seed, thread id), never on interleaving.
	rng map[int]*Rand
}

// FaultInjectorConfig selects the perturbations.
type FaultInjectorConfig struct {
	// Seed derives every thread's perturbation stream.
	Seed int64
	// GoschedStorm injects up to this many runtime.Gosched calls per lock
	// boundary (0 disables).
	GoschedStorm int
	// SleepJitter injects a random sleep of up to this duration per lock
	// boundary (0 disables).
	SleepJitter time.Duration
	// PanicAt maps thread id -> 1-based lock-boundary index at which that
	// thread panics with a diag.ErrInjected-tagged error. The boundary count
	// is deterministic (it counts the thread's own Lock/TryLock/Unlock
	// calls), so the injected failure is reproducible.
	PanicAt map[int]int64
}

// Rand and NewRand are internal/detrand's generator under the names this
// package exported it by first; they remain only because bench/ uses them.
type Rand = detrand.Rand

// NewRand is detrand.New.
func NewRand(seed int64, id int) *Rand { return detrand.New(seed, id) }

// NewFaultInjector builds an injector from cfg.
func NewFaultInjector(cfg FaultInjectorConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: make(map[int]*Rand)}
}

// SetFaultInjector installs (or, with nil, removes) the injector. Must be
// called before Run.
func (rt *Runtime) SetFaultInjector(fi *FaultInjector) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.injector = fi
}

// injectBoundary is called by Lock/TryLock/Unlock before their turn-gated
// event. With no injector installed it is a nil check and a return.
func (rt *Runtime) injectBoundary(t *Thread, op string) {
	if rt.injector == nil {
		return
	}
	rt.injector.boundary(t, op)
}

func (fi *FaultInjector) boundary(t *Thread, op string) {
	t.boundaries++
	n := t.boundaries
	if at, ok := fi.cfg.PanicAt[t.id]; ok && n == at {
		panic(fmt.Errorf("%w: %s boundary %d on thread %d", diag.ErrInjected, op, n, t.id))
	}
	fi.mu.Lock()
	r := fi.rng[t.id]
	if r == nil {
		r = NewRand(fi.cfg.Seed, t.id)
		fi.rng[t.id] = r
	}
	storm := 0
	var sleep time.Duration
	if fi.cfg.GoschedStorm > 0 {
		storm = int(r.Next() % uint64(fi.cfg.GoschedStorm+1))
	}
	if fi.cfg.SleepJitter > 0 {
		sleep = time.Duration(r.Next() % uint64(fi.cfg.SleepJitter))
	}
	fi.mu.Unlock()
	for i := 0; i < storm; i++ {
		runtime.Gosched()
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
}
