package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
)

type block[C any] struct {
	Hits  C
	Depth int
	Name  string
	Miss  C
}

func TestLoad(t *testing.T) {
	t.Run("cell copied", func(t *testing.T) {
		var live block[atomic.Int64]
		live.Hits.Store(3)
		live.Miss.Store(5)
		var snap block[int64]
		Load(&live, &snap)
		if snap.Hits != 3 || snap.Miss != 5 {
			t.Fatalf("snap = %+v, want Hits 3, Miss 5", snap)
		}
	})
	t.Run("non-cell field untouched", func(t *testing.T) {
		live := block[atomic.Int64]{Depth: 7, Name: "live"}
		snap := block[int64]{Depth: 9, Name: "snap"}
		Load(&live, &snap)
		if snap.Depth != 9 || snap.Name != "snap" {
			t.Fatalf("snap = %+v, want Depth 9, Name snap", snap)
		}
	})
	t.Run("concurrent Add", func(t *testing.T) {
		const adders, each = 4, 1000
		var live block[atomic.Int64]
		var wg sync.WaitGroup
		for i := 0; i < adders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < each; j++ {
					live.Hits.Add(1)
					live.Miss.Add(2)
				}
			}()
		}
		var snap block[int64]
		for prev := int64(0); prev < adders*each; prev = snap.Hits {
			Load(&live, &snap)
			if snap.Hits < prev {
				t.Fatalf("Hits went back: %d after %d", snap.Hits, prev)
			}
		}
		wg.Wait()
		Load(&live, &snap)
		if snap.Hits != adders*each || snap.Miss != 2*adders*each {
			t.Fatalf("snap = %+v, want Hits %d, Miss %d", snap, adders*each, 2*adders*each)
		}
	})
}
