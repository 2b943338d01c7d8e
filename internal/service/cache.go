package service

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Content-addressed caching is the service's central soundness claim: by the
// weak-determinism invariant (DESIGN §5.1/§5.6), identical (program, config)
// pairs produce identical schedules and cycle counts, so a stored result IS
// the result of re-execution. Two layers:
//
//   - the instrumentation cache maps (IR source, options) — the request
//     fields themselves, it never leaves the process — to the instrumented
//     module and pass statistics: instrumentation is a pure function of them;
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
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *lruEntry[K, V]; front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// get returns the cached value and marks it most recently used; peek leaves
// recency alone — maintenance traffic (repair) must not reorder the LRU.
func (c *lruCache[K, V]) get(key K) (V, bool)  { return c.lookup(key, true) }
func (c *lruCache[K, V]) peek(key K) (V, bool) { return c.lookup(key, false) }

func (c *lruCache[K, V]) lookup(key K, touch bool) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, hit := c.items[key]; hit {
		if touch {
			c.ll.MoveToFront(el)
		}
		val, ok = el.Value.(*lruEntry[K, V]).val, true
	}
	return val, ok
}

// add inserts (or refreshes) a key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache[K, V]) add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lruCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// each calls f on every entry, most recently used first, without touching
// recency. The anti-entropy repair loop enumerates the result cache with it.
func (c *lruCache[K, V]) each(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*lruEntry[K, V])
		f(ent.key, ent.val)
	}
}

// remove evicts a key (repair quarantine); missing keys are a no-op.
func (c *lruCache[K, V]) remove(key K) {
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
	// keyState is the SHA-256 state after "mod\x00" and mod's canonical
	// printed text — the content address every result key of this module
	// resumes from (resultKey).
	keyState []byte
	// pass holds instrumentation statistics (nil for baseline jobs).
	pass *core.Result
	// decoded holds mod's decoded instruction streams; freed with the entry.
	decoded *interp.DCache
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

// instrKey addresses an instrumentation: the exact source text plus every
// option that changes the instrumented module. The map compares the fields
// themselves, so a lookup costs a map hash and a memeq over the source.
type instrKey struct {
	source, entry, preset string
	baseline              bool
}

func instrKeyOf(req *Request) instrKey {
	if req.Baseline { // not instrumented: the preset cannot matter
		return instrKey{source: req.Source, entry: req.Entry, baseline: true}
	}
	return instrKey{source: req.Source, entry: req.Entry, preset: req.Preset}
}

// moduleKeyState hashes the per-module prefix of a result key and returns
// the digest's state. It runs once per instrEntry, over a whole program text.
func moduleKeyState(moduleText string) []byte {
	h := sha256.New()
	h.Write([]byte("mod\x00"))
	// No []byte(moduleText): passed through hash.Hash it would be copied.
	h.Write(unsafe.Slice(unsafe.StringData(moduleText), len(moduleText)))
	state, _ := h.(encoding.BinaryMarshaler).MarshalBinary() // a SHA-256 digest's never fails
	return state
}

// resultKey is the content address of a simulation: the instrumented
// module's printed text (resumed from moduleKeyState) plus every SimConfig
// field that can change the outcome. PerturbSeed is included even though
// deterministic schedules are invariant under it — makespans are not.
func resultKey(keyState []byte, req *Request) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(keyState); err != nil {
		panic(err) // keyState only ever comes from moduleKeyState
	}
	b := append(make([]byte, 0, 96), "\x00threads\x00"...)
	b = strconv.AppendInt(b, int64(req.Threads), 10)
	b = append(append(b, "\x00entry\x00"...), req.Entry...)
	b = strconv.AppendBool(append(b, "\x00det\x00"...), !req.Baseline)
	b = strconv.AppendBool(append(b, "\x00race\x00"...), req.Race)
	b = strconv.AppendInt(append(b, "\x00seed\x00"...), req.PerturbSeed, 10)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
