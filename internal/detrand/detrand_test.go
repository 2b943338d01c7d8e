package detrand

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
)

// TestStreamsPinned pins the generator and both planes' id assignments to
// the values the separate registries produced before they were merged here:
// committed timelines and tables are functions of these draws.
func TestStreamsPinned(t *testing.T) {
	r := New(42, 7)
	if a, b, n, f := r.Next(), r.Next(), r.IntN(1000), r.Float(); a != 11330207162911093004 ||
		b != 2916258895248162798 || n != 657 || f != 0.3376344636668833 {
		t.Fatalf("New(42, 7) drew %d %d %d %v", a, b, n, f)
	}
	for _, tc := range []struct {
		base  int
		label string
		want  uint64
	}{
		{NemesisAdhocBase, "storage", 4090994782553889681},
		{NemesisAdhocBase, "custom", 3067669289600826857},
		{NemesisAdhocBase, "membership", 16883620046950541668},
		{WorkloadAdhocBase, "mix", 6422707727928618022},
		{WorkloadAdhocBase, "think/3", 1546130197440723592},
		{WorkloadAdhocBase, "nemesis", 18186486438687665896},
	} {
		if got := NewStreams(9, tc.base).Stream(tc.label).Next(); got != tc.want {
			t.Errorf("seed 9 label %q (ad-hoc base %d): first draw %d, want %d", tc.label, tc.base, got, tc.want)
		}
	}
}

// TestRandEdges: a zero state steps off xorshift's fixed point instead of
// emitting zeros forever, and IntN of a non-positive bound consumes no draw.
func TestRandEdges(t *testing.T) {
	z := FromState(0)
	if z.Next() == 0 || z.Next() == 0 {
		t.Fatal("zero-state stream is stuck at 0")
	}
	a, b := New(5, 1), New(5, 1)
	if a.IntN(0) != 0 || a.IntN(-3) != 0 {
		t.Fatal("IntN of a non-positive bound is not 0")
	}
	if a.Next() != b.Next() {
		t.Fatal("IntN of a non-positive bound consumed a draw")
	}
}

// TestClassTableDisjoint: no two named classes, of either plane, share an id,
// and none sits inside an ad-hoc range.
func TestClassTableDisjoint(t *testing.T) {
	seen := map[int]string{}
	for class, id := range classIDs {
		if other, ok := seen[id]; ok {
			t.Errorf("classes %q and %q share stream id %d", class, other, id)
		}
		seen[id] = class
		if id >= WorkloadAdhocBase && id < WorkloadAdhocBase+adhocBuckets {
			t.Errorf("class %q id %d lies in the workload ad-hoc range", class, id)
		}
	}
}

// TestStreamsRefuseSharedID: requesting every table class is clean and
// repeatable; two hashed labels landing on one id is a typed configuration
// error naming both, not a silent alias.
func TestStreamsRefuseSharedID(t *testing.T) {
	s := NewStreams(3, WorkloadAdhocBase)
	for class := range classIDs {
		if s.Stream(class) != s.Stream(class) {
			t.Fatalf("class %q: a second request returned a different stream", class)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("table classes collide: %v", err)
	}
	s.Stream("think/9")
	if err := s.Err(); err != nil {
		t.Fatalf("first hashed label: %v", err)
	}
	s.Stream("think/10") // hashes to the same bucket as think/9
	err := s.Err()
	if !errors.Is(err, diag.ErrBadConfig) {
		t.Fatalf("think/9 and think/10 share an id: err = %v, want ErrBadConfig", err)
	}
	if !strings.Contains(err.Error(), `"think/9"`) || !strings.Contains(err.Error(), `"think/10"`) {
		t.Fatalf("collision error does not name both labels: %v", err)
	}
}
