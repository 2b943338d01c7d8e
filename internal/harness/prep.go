package harness

// Run-preparation caching. A table sweep executes hundreds of simulations
// over a handful of distinct inputs: the same benchmark module is rebuilt
// by splash.New for every table, re-cloned and re-instrumented for every
// (preset × mode) cell, and re-decoded by every machine. All of that work
// is deterministic in its inputs, so the Runner memoizes it:
//
//   - benchFor caches splash.New per (name, threads);
//   - instrumented caches the instrumented clone per (module, options,
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
// (Roots), so the key carries its printed form with Roots cleared — still
// exhaustive if fields are added — and the entry field pins the single
// root Run always uses.
type instKey struct {
	mod   *ir.Module
	opt   string
	entry string
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
// cannot go stale. A false return (no cache, or a verify failure) just
// means the machine will verify for itself.
func (r *Runner) verified(m *ir.Module) bool {
	c := r.cache
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok, seen := c.verified[m]; seen {
		return ok
	}
	ok := m.Verify(r.Est.Has) == nil
	if len(c.verified) >= 1024 {
		c.verified = map[*ir.Module]bool{}
	}
	c.verified[m] = ok
	return ok
}

// benchFor returns the (cached) splash benchmark for name at the runner's
// thread count. Runners built as struct literals have no cache and fall
// back to constructing a fresh benchmark.
func (r *Runner) benchFor(name string) (*splash.Benchmark, error) {
	c := r.cache
	if c == nil {
		return splash.New(name, r.Threads)
	}
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

// instrument returns mod's instrumented clone under opt, cached per
// (module, options, entry). The lock is held across core.Instrument so
// concurrent workers requesting the same cell share one result.
func (r *Runner) instrument(mod *ir.Module, opt core.Options) (*ir.Module, int, error) {
	build := func() (*ir.Module, int, error) {
		m := mod.Clone()
		res, err := core.Instrument(m, r.Costs, r.Est, opt)
		if err != nil {
			return nil, 0, err
		}
		return m, len(res.Clockable), nil
	}
	c := r.cache
	if c == nil || len(opt.Roots) > 1 {
		return build()
	}
	key := instKey{mod: mod}
	if len(opt.Roots) == 1 {
		key.entry = opt.Roots[0]
	}
	flags := opt
	flags.Roots = nil
	key.opt = fmt.Sprintf("%+v", flags)
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.inst[key]; p != nil {
		return p.mod, p.clockable, nil
	}
	m, clockable, err := build()
	if err != nil {
		return nil, 0, err
	}
	// Modules live as long as the Runner once cached; bound the map so a
	// long-lived Runner fed a stream of distinct modules cannot grow it
	// without limit.
	if len(c.inst) >= 1024 {
		c.inst = map[instKey]*instrumented{}
	}
	c.inst[key] = &instrumented{mod: m, clockable: clockable}
	return m, clockable, nil
}
