package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Content-addressed caching is the service's central soundness claim: by the
// weak-determinism invariant (DESIGN §5.1/§5.6), identical (program, config)
// pairs produce identical schedules and cycle counts, so a stored result IS
// the result of re-execution. Two layers:
//
//   - the instrumentation cache maps hash(IR source, Options) to the
//     instrumented module and pass statistics — instrumentation is a pure
//     function of (source, options);
//   - the result cache maps hash(instrumented module, SimConfig) to the
//     simulation outcome — keyed on the *instrumented* text so two sources
//     that instrument to the same module share one entry.
//
// The determinism self-check (Config.SelfCheckRate) re-executes a sampled
// fraction of result-cache hits and compares schedules, so a violated
// invariant (a miscompiled pass, a nondeterministic simulator bug, cache
// corruption) surfaces as a typed DivergenceError instead of silently
// serving a wrong answer.

// lruCache is a small bounded LRU: map + intrusive recency list.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) a key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache) add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// peek returns the cached value without marking it used — enumeration paths
// (repair scans) must not let maintenance traffic reorder the LRU.
func (c *lruCache) peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// keys returns every cached key, most recently used first, without touching
// recency. The anti-entropy repair loop enumerates the result cache with it.
func (c *lruCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).key)
	}
	return out
}

// remove evicts a key (repair quarantine); missing keys are a no-op.
func (c *lruCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// instrEntry is one instrumentation-cache value. The module is immutable
// after insertion and has passed Module.Verify in this form: simulations run
// it directly and concurrently, since the interpreter only reads a module
// (all run state lives in interp.Machine).
type instrEntry struct {
	// mod is the module jobs run: instrumented in place after parsing, or
	// as parsed for baseline jobs.
	mod *ir.Module
	// text is mod's canonical printed form — the content address the result
	// cache keys on.
	text string
	// pass holds instrumentation statistics (nil for baseline jobs).
	pass *core.Result
}

// resultEntry is one result-cache value: the canonical outcome of a
// (instrumented module, sim config) pair. The schedule is always stored —
// it is the self-check's comparison reference and serves Schedule artifact
// requests. The overhead row is filled lazily by the first job that asks
// for it.
type resultEntry struct {
	res      Result // canonical fields only; job-specific fields zeroed
	schedule *trace.Schedule
	// req is the originating request when known (local simulation, peer fill,
	// offers that carry it) — what lets the anti-entropy repair loop arbitrate
	// a divergent entry by deterministic recompute. Nil for entries installed
	// from a bare wire result; those are unverifiable and repair evicts them
	// instead of arguing about them.
	req *Request

	mu       sync.Mutex // guards overhead
	overhead *harness.OverheadRow
}

// exportEntry renders a cache entry in wire form: the canonical result core
// with the schedule attached — what peer fill responses, offers, and journal
// shipping exchange between nodes. Job-specific fields stay zero.
func exportEntry(ent *resultEntry) *Result {
	res := ent.res // copy: canonical fields only
	res.Schedule = ent.schedule
	return &res
}

// entryFromPeer rebuilds a cache entry from a peer's wire-form result,
// stripping every job- and transport-specific field so the installed entry
// is indistinguishable from one computed locally. Callers have already
// verified the schedule hashes to res.ScheduleHash. req, when known, makes
// the entry recheckable by the repair loop; nil is allowed.
func entryFromPeer(res *Result, req *Request) *resultEntry {
	r := *res
	sched := r.Schedule
	r.JobID, r.Cached, r.InstrCached, r.SelfChecked, r.PeerFilled, r.Remote = "", false, false, false, false, false
	r.Schedule, r.Overhead = nil, nil
	r.Stage = StageLatency{}
	ent := &resultEntry{res: r, schedule: sched}
	if req != nil {
		rc := *req
		ent.req = &rc
	}
	return ent
}

// instrKey is the content address of an instrumentation: the exact source
// text plus every option that changes the instrumented module.
func instrKey(req *Request) string {
	mode, preset := "\x00preset\x00", req.Preset
	if req.Baseline {
		mode, preset = "\x00baseline", ""
	}
	h := sha256.New()
	for _, s := range [...]string{"src\x00", req.Source, "\x00entry\x00", req.Entry, mode, preset} {
		hashString(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashString writes s to h without the copy that []byte(s), passed through
// the hash.Hash interface, would allocate: both keys are computed for every
// job, hits included, over a whole program text.
func hashString(h hash.Hash, s string) {
	h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// resultKey is the content address of a simulation: the instrumented
// module's printed text plus every SimConfig field that can change the
// outcome. PerturbSeed is included even though deterministic schedules are
// invariant under it — makespans are not.
func resultKey(moduleText string, req *Request) string {
	h := sha256.New()
	hashString(h, "mod\x00")
	hashString(h, moduleText)
	b := append(make([]byte, 0, 96), "\x00threads\x00"...)
	b = strconv.AppendInt(b, int64(req.Threads), 10)
	b = append(append(b, "\x00entry\x00"...), req.Entry...)
	b = strconv.AppendBool(append(b, "\x00det\x00"...), !req.Baseline)
	b = strconv.AppendBool(append(b, "\x00race\x00"...), req.Race)
	b = strconv.AppendInt(append(b, "\x00seed\x00"...), req.PerturbSeed, 10)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
