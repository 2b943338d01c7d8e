package harness

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/splash"
)

// BenchmarkRaceOverheadThreads is the detector-overhead-vs-threads curve of
// EXPERIMENTS.md *Race detector — PR 16*: each splash program (preset all,
// ModeDet) at 4 / 16 / 64 / 256 simulated threads with the fail-fast detector
// off and on; -benchmem gives the bytes and allocations of one run. Module
// preparation is warmed outside the timer, so off/on differ by the detector
// alone (shadow state, access checks, sync hooks). raytrace stops at 128: its
// model races on image[0] from 192 threads up (thread 0's write against a
// late splitter's read), which the fail-fast detector rightly refuses.
func BenchmarkRaceOverheadThreads(b *testing.B) {
	for _, name := range splash.Names() {
		for _, threads := range []int{4, 16, 64, 256} {
			if name == "raytrace" && threads > 128 {
				threads = 128
			}
			for _, on := range []bool{false, true} {
				b.Run(fmt.Sprintf("%s/threads=%d/detector=%v", name, threads, on), func(b *testing.B) {
					r := NewRunner()
					r.Threads, r.RaceCheck = threads, on
					bench, err := splash.New(name, threads)
					if err != nil {
						b.Fatal(err)
					}
					run := func() {
						if _, err := r.Run(bench, PresetByKey("all"), ModeDet, 0); err != nil {
							b.Fatal(err)
						}
					}
					run()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
		}
	}
}

// TestRaceRunAllocBudget keeps an allocation regression in the detector inside
// `go test`: one warmed radiosity ModeDet run with the detector on allocated
// 2.99 MB in 17,256 objects before the shadow state was rebuilt around
// snapshots, slabs and first-touch pages, and 0.68 MB in about 450 after.
func TestRaceRunAllocBudget(t *testing.T) {
	r := NewRunner()
	r.RaceCheck = true
	bench, err := splash.New("radiosity", 4)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for i := 0; i < 2; i++ { // the first run fills the prep and decode caches
		runtime.ReadMemStats(&before)
		if _, err := r.Run(bench, PresetByKey("all"), ModeDet, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("radiosity, detector on: %d bytes in %d objects", bytes, objects)
	if bytes > 1_000_000 || objects > 3000 {
		t.Errorf("one detected radiosity run allocated %d bytes in %d objects, budget 1 MB in 3000", bytes, objects)
	}
}
