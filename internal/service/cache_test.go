package service

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/detrand"
	"repro/internal/splash"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU[string, int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted under capacity")
	}
	// "a" is now most recent; adding "c" must evict "b".
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Refreshing an existing key must not grow the cache.
	c.add("c", 4)
	if v, _ := c.get("c"); v != 4 {
		t.Fatalf("refresh did not replace value: %v", v)
	}
	if c.len() != 2 {
		t.Fatalf("len after refresh = %d, want 2", c.len())
	}
}

// TestLRUColdInsertion pins addCold, the insertion peer-filled copies take:
// it evicts before it inserts, so at capacity the victim is the old least
// recently used entry and not the new copy; a present key keeps its value
// and its place; a get promotes a copy like any entry; and the cache never
// grows past its capacity.
func TestLRUColdInsertion(t *testing.T) {
	order := func(c *lruCache[string, int]) string {
		var keys []string
		c.each(func(k string, _ int) { keys = append(keys, k) })
		return strings.Join(keys, " ")
	}
	c := newLRU[string, int](3)
	c.add("a", 1)
	c.add("b", 2)
	c.addCold("x", 10) // a free slot: nothing is evicted
	if got := order(c); got != "b a x" {
		t.Fatalf("order after a cold insert with a free slot = %q, want \"b a x\"", got)
	}
	c.add("c", 3)      // evicts x, the least recently used
	c.addCold("y", 20) // evicts a, then enters behind b
	if got := order(c); got != "c b y" {
		t.Fatalf("order after a cold insert at capacity = %q, want \"c b y\"", got)
	}
	c.add("b", 2)      // b to the front
	c.addCold("c", 99) // present: neither demoted nor replaced
	if got := order(c); got != "b c y" {
		t.Fatalf("order after a cold insert of a present key = %q, want \"b c y\"", got)
	}
	if v, _ := c.peek("c"); v != 3 {
		t.Fatalf("cold insert of a present key replaced its value: %d", v)
	}
	if v, ok := c.get("y"); !ok || v != 20 {
		t.Fatalf("get(y) = %d, %v", v, ok)
	}
	if got := order(c); got != "y b c" {
		t.Fatalf("order after a get of a copy = %q, want \"y b c\"", got)
	}
	for i := 0; i < 10; i++ {
		c.addCold(fmt.Sprintf("z%d", i), i)
		if n := c.len(); n > 3 {
			t.Fatalf("cold insert %d grew the cache to %d", i, n)
		}
	}
	if got := order(c); got != "y b z9" {
		t.Fatalf("order after ten cold inserts = %q, want \"y b z9\": copies evict copies", got)
	}
}

// TestLRUConcurrentEviction hammers a small LRU from many goroutines whose
// key ranges overlap, so adds, cold adds, hits, refreshes, and evictions
// race — run under -race in CI. The invariants: the cache never exceeds
// capacity, every value read matches its key, and the map and recency list
// stay consistent.
func TestLRUConcurrentEviction(t *testing.T) {
	const (
		capacity   = 8
		goroutines = 16
		ops        = 2000
		keyspace   = 32 // 4× capacity: constant eviction pressure
	)
	c := newLRU[string, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*7 + i) % keyspace // overlapping, shifted walks
				key := fmt.Sprintf("k%d", k)
				if v, ok := c.get(key); ok {
					if v != k {
						t.Errorf("key %s returned value %v", key, v)
						return
					}
				} else if g%2 == 0 {
					c.add(key, k)
				} else {
					c.addCold(key, k)
				}
				if n := c.len(); n > capacity {
					t.Errorf("cache grew to %d > capacity %d", n, capacity)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-race consistency: map and list agree, every survivor is readable.
	c.mu.Lock()
	if len(c.items) != c.ll.Len() {
		t.Fatalf("map has %d entries, list %d", len(c.items), c.ll.Len())
	}
	keys := make([]string, 0, len(c.items))
	for k := range c.items {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	if len(keys) != capacity {
		t.Fatalf("cache holds %d entries after sustained pressure, want %d", len(keys), capacity)
	}
	for _, k := range keys {
		if _, ok := c.get(k); !ok {
			t.Fatalf("surviving key %s unreadable", k)
		}
	}
}

// TestCacheKeySensitivity: every field that can change the outcome must
// change the content address; fields that cannot must not.
func TestCacheKeySensitivity(t *testing.T) {
	base := Request{Source: "module m", Entry: "main", Threads: 4, Preset: "all"}

	// The instrumentation key is compared field by field, never hashed: a
	// source built at run time must equal the same text held elsewhere.
	if copied := (Request{Source: strings.Clone(base.Source), Entry: "main", Preset: "all"}); instrKeyOf(&copied) != instrKeyOf(&base) {
		t.Fatal("instrKey not stable")
	}
	variants := []Request{
		{Source: "module m2", Entry: "main", Threads: 4, Preset: "all"},
		{Source: "module m", Entry: "other", Threads: 4, Preset: "all"},
		{Source: "module m", Entry: "main", Threads: 4, Preset: "O2"},
		{Source: "module m", Entry: "main", Threads: 4, Preset: "all", Baseline: true},
	}
	for i, v := range variants {
		if instrKeyOf(&v) == instrKeyOf(&base) {
			t.Errorf("instr variant %d collided with base", i)
		}
	}
	// Threads, seed, and race do not affect instrumentation…
	same := base
	same.Threads, same.PerturbSeed, same.Race = 8, 99, true
	if instrKeyOf(&same) != instrKeyOf(&base) {
		t.Error("sim-only fields leaked into instrKey")
	}
	// …nor does the preset of a module that is not instrumented…
	b1, b2 := variants[3], variants[3]
	b2.Preset = "O2"
	if instrKeyOf(&b1) != instrKeyOf(&b2) {
		t.Error("baseline instrKey depends on the preset")
	}
	// …but all affect the result key.
	mod, modA, modB := moduleKeyState("mod"), moduleKeyState("modA"), moduleKeyState("modB")
	if resultKey(mod, &same) == resultKey(mod, &base) {
		t.Error("resultKey ignored sim config changes")
	}
	if resultKey(modA, &base) == resultKey(modB, &base) {
		t.Error("resultKey ignored module text")
	}
	if resultKey(mod, &base) != resultKey(moduleKeyState("mod"), &base) {
		t.Error("resultKey not stable")
	}
}

func TestSampler(t *testing.T) {
	if s := newSampler(0, 1); s != nil {
		t.Fatal("rate 0 should disable sampling")
	}
	var nilS *sampler
	if nilS.sample() {
		t.Fatal("nil sampler sampled")
	}
	always := newSampler(1, 1)
	for i := 0; i < 100; i++ {
		if !always.sample() {
			t.Fatal("rate 1 sampler skipped a hit")
		}
	}
	half := newSampler(0.5, 42)
	hits := 0
	for i := 0; i < 10000; i++ {
		if half.sample() {
			hits++
		}
	}
	if hits < 4000 || hits > 6000 {
		t.Fatalf("rate 0.5 sampled %d/10000", hits)
	}
	// Determinism: same seed → same stream.
	a, b := newSampler(0.3, 7), newSampler(0.3, 7)
	for i := 0; i < 1000; i++ {
		if a.sample() != b.sample() {
			t.Fatalf("sampler streams diverged at draw %d", i)
		}
	}
}

// TestKeyStateAllocs pins the module half of a result key: the module is
// printed into a pooled buffer, so a key state costs the SHA-256 digest and
// its marshalled state, not the text Module.String allocated for it (36 kB
// for radiosity), and equals the state hashed from that text.
func TestKeyStateAllocs(t *testing.T) {
	m := splash.Radiosity(4).Module
	if !bytes.Equal(keyStateOf(m), moduleKeyState(m.String())) {
		t.Fatal("keyStateOf differs from the state of the printed text")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under -race")
	}
	if n := testing.AllocsPerRun(20, func() { keyStateOf(m) }); n > 2 {
		t.Errorf("keyStateOf: %v allocations, want at most 2", n)
	}
}

// memoEntry builds req's instrumentation entry through KeyFor and returns it
// with the normalized request.
func memoEntry(t *testing.T, s *Service, req Request) (*instrEntry, Request) {
	t.Helper()
	if _, err := s.KeyFor(req); err != nil {
		t.Fatal(err)
	}
	if err := normalize(&req); err != nil {
		t.Fatal(err)
	}
	ie, ok := s.instr.peek(instrKeyOf(&req))
	if !ok {
		t.Fatal("KeyFor left no instrumentation entry")
	}
	return ie, req
}

// TestKeyMemoMatchesDigest: a key read through the memo is the key digested
// from scratch, and KeyFor's, over random configuration sequences on a
// deterministic and a baseline entry — repeats, configurations that share a
// slot and so evict each other, one seed at several thread counts.
func TestKeyMemoMatchesDigest(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Kill()
	src := hitPrograms(t)["1kB"]
	rng := detrand.New(50, 0)
	for _, base := range []Request{{Source: src}, {Source: src, Baseline: true}} {
		ie, base := memoEntry(t, s, base)
		for i := range 4000 {
			req := base
			req.Threads = 1 + rng.IntN(8)
			req.Race = !base.Baseline && rng.IntN(2) == 0
			req.PerturbSeed = int64(rng.IntN(3*keySlots)) - keySlots // 48 seeds: every slot shared
			if i%7 == 0 {
				req.PerturbSeed = int64(rng.Next()) // anywhere in int64
			}
			want := resultKey(ie.keyState, &req)
			if got := ie.resultKey(simConfigOf(&req)); got != want {
				t.Fatalf("step %d, %+v: memo key %s, digest %s", i, simConfigOf(&req), got, want)
			}
			if got, err := s.KeyFor(req); err != nil || got != want {
				t.Fatalf("step %d, %+v: KeyFor %s (%v), digest %s", i, simConfigOf(&req), got, err, want)
			}
		}
	}
	// Sixteen consecutive seeds of one configuration take sixteen slots.
	seen := map[int]bool{}
	for seed := int64(32); seed < 32+keySlots; seed++ {
		seen[simConfig{threads: 4, seed: seed}.slot()] = true
	}
	if len(seen) != keySlots {
		t.Errorf("16 consecutive seeds took %d slots", len(seen))
	}
}

// TestKeyMemoConcurrentHits: eight goroutines reading keys of one entry at
// once, through configurations that share slots, each get the right key.
// Under -race this is the memo's data-race check.
func TestKeyMemoConcurrentHits(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Kill()
	ie, base := memoEntry(t, s, Request{Source: hitPrograms(t)["1kB"]})
	want := make([]string, 2*keySlots)
	for i := range want {
		req := base
		req.PerturbSeed = int64(i)
		want[i] = resultKey(ie.keyState, &req)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				seed := (g*7 + i) % len(want)
				if got := ie.resultKey(simConfig{threads: base.Threads, seed: int64(seed)}); got != want[seed] {
					t.Errorf("goroutine %d, seed %d: key %s, want %s", g, seed, got, want[seed])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyMemoBounded: an entry remembers at most keySlots keys however many
// configurations it has served.
func TestKeyMemoBounded(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Kill()
	ie, base := memoEntry(t, s, Request{Source: hitPrograms(t)["1kB"]})
	for seed := range int64(10_000) {
		req := base
		req.PerturbSeed = seed * 7919
		if _, err := s.KeyFor(req); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for i := range ie.keys {
		if ie.keys[i].Load() != nil {
			held++
		}
	}
	if held > keySlots {
		t.Fatalf("after 10000 seeds the entry holds %d keys, more than its %d slots", held, keySlots)
	}
}
