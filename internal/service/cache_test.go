package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
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

// TestLRUConcurrentEviction hammers a small LRU from many goroutines whose
// key ranges overlap, so adds, hits, refreshes, and evictions race — run
// under -race in CI. The invariants: the cache never exceeds capacity, every
// value read matches its key, and the map and recency list stay consistent.
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
				} else {
					c.add(key, k)
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
