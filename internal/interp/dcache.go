package interp

import (
	"sync"

	"repro/internal/estimates"
	"repro/internal/ir"
)

// DCache shares decoded instruction streams (decode.go) across machines.
//
// A decoded stream references globals by slot index and its module/cost
// tables by value, so it is independent of any particular Machine; the only
// inputs decode bakes in are the function itself, the cost model, the
// estimates table, and whether the machine runs in Kendo mode (which
// selects the clockadd decoding and the per-instruction logical costs). The
// cache key pins all four, so a hit is exactly the stream the machine would
// have decoded itself.
//
// The harness wires one DCache per Runner: a table sweep builds hundreds of
// machines over a handful of modules, and sharing removes every decode
// after the first per (function, mode); the service wires one per cached
// module, freed with it. Machines still keep a private lock-free map in
// front of this one, so the dispatch loop never takes the mutex. Concurrent
// machines may race to decode the same key; both results are identical and
// either may win — publication is last-write.
type DCache struct {
	mu sync.Mutex
	m  map[dckey]*dcode
}

type dckey struct {
	fn    *ir.Func
	cm    *ir.CostModel
	est   *estimates.Table
	kendo bool
}

// NewDCache returns an empty shared decode cache.
func NewDCache() *DCache {
	return &DCache{m: map[dckey]*dcode{}}
}

func (c *DCache) get(k dckey) *dcode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// publish adds a machine's streams once all are complete (Machine.decode).
// Unbounded: an entry pins its function's module, which both owners hold
// anyway — the service's cache dies with its one module, and a Runner
// memoizes every module it is handed (harness/prep.go).
func (c *DCache) publish(k dckey, streams map[*ir.Func]*dcode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for fn, dc := range streams {
		k.fn = fn
		c.m[k] = dc
	}
}
