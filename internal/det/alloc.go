package det

import "sort"

// Allocator is the deterministic allocator shim. The paper (§III-B) notes
// that functions with internal locks, such as malloc, must have those locks
// replaced with deterministic locks; this first-fit word allocator over a
// fixed arena is guarded by a det.Mutex so that allocation order — and hence
// the addresses handed out — is identical across runs.
type Allocator struct {
	mu   *Mutex
	size int64

	// freeRuns maps offset -> length of free runs, kept coalesced.
	freeRuns map[int64]int64
	// allocated maps offset -> length of live blocks.
	allocated map[int64]int64
}

// NewAllocator creates an allocator over an arena of size words.
func (rt *Runtime) NewAllocator(size int64) *Allocator {
	if size <= 0 {
		panic("det: allocator needs a positive arena size")
	}
	return &Allocator{
		mu:        rt.NewMutex(),
		size:      size,
		freeRuns:  map[int64]int64{0: size},
		allocated: map[int64]int64{},
	}
}

// Alloc returns the offset of a fresh n-word block, or -1 when the arena is
// exhausted. First-fit over offsets sorted ascending keeps the decision
// deterministic given a deterministic call order, which the det.Mutex
// provides.
func (a *Allocator) Alloc(t *Thread, n int64) int64 {
	if n <= 0 {
		return -1
	}
	a.mu.Lock(t)
	defer a.mu.Unlock(t)
	offs := make([]int64, 0, len(a.freeRuns))
	for o := range a.freeRuns {
		offs = append(offs, o)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, o := range offs {
		run := a.freeRuns[o]
		if run < n {
			continue
		}
		delete(a.freeRuns, o)
		if run > n {
			a.freeRuns[o+n] = run - n
		}
		a.allocated[o] = n
		return o
	}
	return -1
}

// Free releases the block at offset, coalescing adjacent free runs.
func (a *Allocator) Free(t *Thread, offset int64) {
	a.mu.Lock(t)
	defer a.mu.Unlock(t)
	n, ok := a.allocated[offset]
	if !ok {
		panic("det: free of unallocated offset")
	}
	delete(a.allocated, offset)
	// Coalesce with the following run.
	if after, ok := a.freeRuns[offset+n]; ok {
		delete(a.freeRuns, offset+n)
		n += after
	}
	// Coalesce with a preceding run.
	for o, run := range a.freeRuns {
		if o+run == offset {
			delete(a.freeRuns, o)
			offset, n = o, n+run
			break
		}
	}
	a.freeRuns[offset] = n
}
