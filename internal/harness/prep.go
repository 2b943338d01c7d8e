package harness

// Run-preparation caching. A table sweep executes hundreds of simulations
// over a handful of distinct inputs: the same benchmark module is rebuilt
// by splash.New for every table, re-cloned and re-instrumented for every
// (preset × mode) cell, and re-decoded by every machine. All of that work
// is deterministic in its inputs, so the Runner memoizes it:
//
//   - benchFor caches splash.New per (name, threads);
//   - instrument caches the instrumented clone per (module, options,
//     entry) — the ClocksOnly and Det runs of one preset share one module;
//   - runs that do not instrument execute b.Module directly (no clone): the
//     interpreter copies global initializers into per-machine buffers and
//     never writes the module, so concurrent sweep workers can share it.
//
// Sharing modules across runs is also what makes the interp.DCache
// effective: decoded streams are keyed by *ir.Func, so cache hits require
// pointer-stable functions. None of this changes any result — every cached
// artifact is bit-identical to the one a cold run would rebuild, and the
// equivalence property tests cover the cached paths.
//
// The maps are unbounded: a Runner memoizes only the benchmarks its caller
// hands it, whose decoded functions its DCache keeps alive anyway; a
// repeated sweep adds no entry (TestPrepCacheBounded).

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/splash"
)

type benchKey struct {
	name    string
	threads int
}

// instKey identifies one instrumentation result. Options holds a slice
// (Roots), so the key carries its printed form, still exhaustive if fields
// are added.
type instKey struct {
	mod *ir.Module
	opt string
}

type instrumented struct {
	mod       *ir.Module
	clockable int
}

// prepCache is shared by pointer across Runner copies (a caller clones the
// Runner to flip Reference), so the reference and optimized sweeps prepare
// identical inputs.
type prepCache struct {
	mu       sync.Mutex
	bench    map[benchKey]*splash.Benchmark
	inst     map[instKey]*instrumented
	verified map[*ir.Module]bool // modules that passed ir.Verify with r.Est
}

func newPrepCache() *prepCache {
	return &prepCache{
		bench:    map[benchKey]*splash.Benchmark{},
		inst:     map[instKey]*instrumented{},
		verified: map[*ir.Module]bool{},
	}
}

// verified reports whether m already passed Verify against the runner's
// estimates table, verifying and memoizing on first sight. Cached modules
// are immutable from the moment they are shared across runs, so the memo
// cannot go stale. A false return (a verify failure) just means the machine
// will verify for itself and report the error.
func (r *Runner) verified(m *ir.Module) bool {
	c := r.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok, seen := c.verified[m]; seen {
		return ok
	}
	ok := m.Verify(r.Est.Has) == nil
	c.verified[m] = ok
	return ok
}

// benchFor returns the cached splash benchmark for name at the runner's
// thread count, building it on first request.
func (r *Runner) benchFor(name string) (*splash.Benchmark, error) {
	c := r.cache
	key := benchKey{name: name, threads: r.Threads}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.bench[key]; b != nil {
		return b, nil
	}
	b, err := splash.New(name, r.Threads)
	if err != nil {
		return nil, err
	}
	c.bench[key] = b
	return b, nil
}

// benchesFor is benchFor over names, in order: every table goes through it,
// so one Runner's tables share modules, and with them the instrumentation
// cache (keyed by module pointer) and the DCache (keyed by *ir.Func).
func (r *Runner) benchesFor(names []string) ([]*splash.Benchmark, error) {
	benches := make([]*splash.Benchmark, len(names))
	for i, name := range names {
		b, err := r.benchFor(name)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	return benches, nil
}

// instrument returns mod's instrumented clone under opt with entry as its
// one root, cached per (module, options). The lock is held across
// core.Instrument so concurrent workers requesting the same cell share one
// result.
func (r *Runner) instrument(mod *ir.Module, opt core.Options, entry string) (*ir.Module, int, error) {
	opt.Roots = []string{entry}
	key := instKey{mod: mod, opt: fmt.Sprintf("%+v", opt)}
	c := r.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.inst[key]; p != nil {
		return p.mod, p.clockable, nil
	}
	m := mod.Clone()
	res, err := core.Instrument(m, r.Costs, r.Est, opt)
	if err != nil {
		return nil, 0, err
	}
	c.inst[key] = &instrumented{mod: m, clockable: len(res.Clockable)}
	return m, len(res.Clockable), nil
}
