package service

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"repro/internal/core"
	"repro/internal/diag"
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
//   - the program table maps a program text to its *program, and the
//     instrumentation cache maps (program, options) — the request fields
//     themselves, it never leaves the process — to the instrumented module
//     and pass statistics: instrumentation is a pure function of them. The
//     table is the text's one name in the process: the front end resolves a
//     source literal through it, a hit finds its program by the string's
//     identity, and the journal takes the program's id from it;
//   - the result cache maps hash(instrumented module, SimConfig) to the
//     simulation outcome — keyed on the *instrumented* text so two sources
//     that instrument to the same module share one entry.
//
// The determinism self-check (Config.SelfCheckRate) re-executes a sampled
// fraction of result-cache hits and compares schedules, so a violated
// invariant (a miscompiled pass, a nondeterministic simulator bug, cache
// corruption) surfaces as a typed DivergenceError instead of silently
// serving a wrong answer.

// lruCache is a small bounded LRU: map + intrusive recency list. evict, when
// set, is called under mu with each entry trim or remove drops.
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *lruEntry[K, V]; front = most recently used
	items map[K]*list.Element
	evict func(K, V)
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
		c.drop(c.ll.Back())
	}
}

func (c *lruCache[K, V]) drop(el *list.Element) {
	ent := c.ll.Remove(el).(*lruEntry[K, V])
	delete(c.items, ent.key)
	if c.evict != nil {
		c.evict(ent.key, ent.val)
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
		c.drop(el)
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
	// entry and baseline are the fields of instrKey a result key
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

// programTable is the service's one table of program texts: each text is
// one *program, which keys the text's instrumentation entries and lives
// exactly as long as the last of them, so the table holds at most
// InstrCacheSize texts. A text is found by its string's identity first (a
// request the front end decoded holds the table's string), then by its
// content; a JSON literal, by the spelling the front end last read a held
// text from. Identity is sound because the table holds the string: its
// address cannot be reused while the program is found by it. Everything is
// guarded by mu, the entries' LRU included.
type programTable struct {
	mu                 sync.Mutex
	entries            *lruCache[instrKey, *instrEntry]
	byRef              map[textRef]*program
	byText, bySpelling map[string]*program
}

// program is one program text the table holds. entries counts the
// instrumentation entries it keys; id is its journal record's, computed on
// first journaled use, so a service without a journal hashes no text.
type program struct {
	text, spelling string
	entries        int
	idOnce         sync.Once
	id             string
}

// textRef is a string's identity: the address and length of its bytes.
type textRef struct {
	data *byte
	n    int
}

func refOf(s string) textRef { return textRef{unsafe.StringData(s), len(s)} }

// newProgram is the one place a program is made, and refuses a text that is
// not valid UTF-8 (notUTF8) before anything caches or journals it.
func newProgram(text string) (*program, error) {
	if !utf8.ValidString(text) {
		return nil, &diag.MisuseError{Op: "service.Submit", ThreadID: -1, Kind: diag.ErrBadConfig, Detail: notUTF8}
	}
	return &program{text: text}, nil
}

func (p *program) journalID() string {
	p.idOnce.Do(func() { p.id = programID(p.text) })
	return p.id
}

// instrKey addresses an instrumentation: the program plus every option that
// changes the instrumented module.
type instrKey struct {
	prog          *program
	entry, preset string
	baseline      bool
}

func instrKeyOf(p *program, req *Request) instrKey {
	if req.Baseline { // not instrumented: the preset cannot matter
		return instrKey{prog: p, entry: req.Entry, baseline: true}
	}
	return instrKey{prog: p, entry: req.Entry, preset: req.Preset}
}

func newProgramTable(capacity int) *programTable {
	t := &programTable{entries: newLRU[instrKey, *instrEntry](capacity),
		byRef: map[textRef]*program{}, byText: map[string]*program{}, bySpelling: map[string]*program{}}
	t.entries.evict = func(k instrKey, _ *instrEntry) {
		p := k.prog
		if p.entries--; p.entries == 0 {
			delete(t.byRef, refOf(p.text))
			delete(t.byText, p.text)
			delete(t.bySpelling, p.spelling)
		}
	}
	return t
}

func (t *programTable) findLocked(text string) *program {
	if p, ok := t.byRef[refOf(text)]; ok {
		return p
	}
	return t.byText[text]
}

// get returns the program of req's text and the entry of req's options, each
// nil when the table holds none; touch marks the entry most recently used.
func (t *programTable) get(req *Request, touch bool) (p *program, ie *instrEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p = t.findLocked(req.Source); p != nil {
		ie, _ = t.entries.lookup(instrKeyOf(p, req), touch)
	}
	return p, ie
}

// add files ie as the entry of req's options under the table's program of
// p's text, p itself when the table holds none.
func (t *programTable) add(p *program, req *Request, ie *instrEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.findLocked(p.text); q != nil {
		p = q
	} else {
		t.byRef[refOf(p.text)], t.byText[p.text] = p, p
	}
	k := instrKeyOf(p, req)
	if _, ok := t.entries.peek(k); !ok {
		p.entries++
		t.entries.add(k, ie)
	}
}

// spelt returns the text of the held program last read from raw, the bytes
// between a JSON literal's quotes.
func (t *programTable) spelt(raw []byte) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.bySpelling[unsafe.String(unsafe.SliceData(raw), len(raw))]
	if !ok {
		return "", false
	}
	return p.text, true
}

// spell makes raw, a literal read as text, the spelling of the program of
// text and returns the program's string; text when no program holds it.
func (t *programTable) spell(raw []byte, text string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.byText[text]
	if p == nil {
		return text
	}
	delete(t.bySpelling, p.spelling)
	p.spelling = string(raw)
	t.bySpelling[p.spelling] = p
	return p.text
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
