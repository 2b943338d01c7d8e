package service

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"

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
	c.trim(c.cap)
}

// addCold inserts an absent key at the least recently used end, evicting
// first so the new entry is not its own victim. A present key keeps its
// value and its place. Peer-filled copies enter this way: a node's own keys
// are the cluster's only cached copies, while a copy comes back by a fill.
func (c *lruCache[K, V]) addCold(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.trim(c.cap - 1)
	c.items[key] = c.ll.PushBack(&lruEntry[K, V]{key: key, val: val})
}

// trim evicts least recently used entries until at most n remain.
func (c *lruCache[K, V]) trim(n int) {
	for c.ll.Len() > n {
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
	// resumes from (digestKey).
	keyState []byte
	// entry and baseline are the request fields of instrKey a result key
	// hashes besides the module: the same for every job of this entry.
	entry    string
	baseline bool
	// keys remembers result keys of this module, one configuration a slot
	// (resultKey): a hit reads its key instead of digesting it.
	keys [keySlots]atomic.Pointer[memoKey]
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

	// claim remembers the journal's claim id of the last request this entry
	// answered as a clean hit (claimFor), so that a journaled hit of the same
	// request names its claim without digesting it.
	claim atomic.Pointer[memoClaim]
}

// memoClaim is a remembered claim id and the request it is for.
type memoClaim struct {
	req Request
	id  string
}

// claimFor returns the claim id remembered for req, or "".
func (ent *resultEntry) claimFor(req *Request) string {
	if m := ent.claim.Load(); m != nil && m.req == *req {
		return m.id
	}
	return ""
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

// keyTextCap is the largest buffer keyTextPool keeps: program texts are
// heavy-tailed, and a buffer grown for one 1 MB program must not stay
// pinned behind a stream of 4 kB ones.
const keyTextCap = 64 << 10

// keyTextPool holds the buffers keyStateOf prints modules into.
var keyTextPool = sync.Pool{New: func() any { return new([]byte) }}

// keyStateOf hashes the per-module prefix of a result key, "mod\x00" and the
// module's printed text, and returns the digest's state. It runs once per
// instrEntry; the text is printed into a pooled buffer and never kept.
func keyStateOf(m *ir.Module) []byte {
	buf := keyTextPool.Get().(*[]byte)
	*buf = m.AppendText(append((*buf)[:0], "mod\x00"...))
	state := keyState(*buf)
	if cap(*buf) <= keyTextCap {
		keyTextPool.Put(buf)
	}
	return state
}

// keyState hashes text, "mod\x00" followed by a module's printed text, and
// returns the digest's state.
func keyState(text []byte) []byte {
	h := sha256.New()
	h.Write(text)
	state, _ := h.(encoding.BinaryMarshaler).MarshalBinary() // a SHA-256 digest's never fails
	return state
}

// simConfig is what a job adds to its instrumentation entry's result key:
// every SimConfig field that can change the outcome, the entry function and
// determinism mode aside (instrKey fixes those per entry). PerturbSeed is
// included even though deterministic schedules are invariant under it —
// makespans are not. A result key is a function of (entry, simConfig), so
// the memo keyed on simConfig can hold no stale key.
type simConfig struct {
	threads int
	race    bool
	seed    int64
}

func simConfigOf(req *Request) simConfig {
	return simConfig{threads: req.Threads, race: req.Race, seed: req.PerturbSeed}
}

// keySlots bounds the result keys an instrEntry remembers: the memo's memory
// per entry is a constant, whatever seeds clients send.
const keySlots = 16

// memoKey is one remembered result key and the configuration it is for.
type memoKey struct {
	cfg simConfig
	key string
}

// slot picks c's memo slot. The seed's low bits choose it, so the sixteen
// consecutive seeds a client sweeps one configuration with take sixteen
// slots; the thread count (times an odd number) and the race flag turn it,
// so one seed at a few configurations does not pile into one slot.
func (c simConfig) slot() int {
	h := uint64(c.seed) + 5*uint64(c.threads)
	if c.race {
		h += keySlots / 2
	}
	return int(h % keySlots)
}

// resultKey is the result key of c on this entry's module. A configuration
// already in its slot is answered from there; any other is digested once and
// replaces what the slot held. Slots are independent atomic pointers, so
// concurrent hits share no lock, and two that race on one slot each return
// their own correct key.
func (ie *instrEntry) resultKey(c simConfig) string {
	slot := &ie.keys[c.slot()]
	if m := slot.Load(); m != nil && m.cfg == c {
		return m.key
	}
	key := ie.digestKey(c)
	slot.Store(&memoKey{cfg: c, key: key})
	return key
}

// digestKey is the content address of a simulation: the instrumented
// module's printed text (resumed from keyStateOf), the entry, the
// determinism mode and c.
func (ie *instrEntry) digestKey(c simConfig) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(ie.keyState); err != nil {
		panic(err) // keyState only ever comes from keyStateOf
	}
	b := append(make([]byte, 0, 96), "\x00threads\x00"...)
	b = strconv.AppendInt(b, int64(c.threads), 10)
	b = append(append(b, "\x00entry\x00"...), ie.entry...)
	b = strconv.AppendBool(append(b, "\x00det\x00"...), !ie.baseline)
	b = strconv.AppendBool(append(b, "\x00race\x00"...), c.race)
	b = strconv.AppendInt(append(b, "\x00seed\x00"...), c.seed, 10)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
