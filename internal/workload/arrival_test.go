package workload

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/diag"
)

func tlOf(t *testing.T, seed int64, cfg ArrivalConfig) []Arrival {
	t.Helper()
	evs, err := Timeline(NewPartitionedRNG(seed), cfg)
	if err != nil {
		t.Fatalf("Timeline(%+v): %v", cfg, err)
	}
	return evs
}

func TestTimelineShapes(t *testing.T) {
	for _, shape := range Shapes() {
		cfg := ArrivalConfig{Shape: shape, Jobs: 500, RatePerSec: 1000}
		evs := tlOf(t, 42, cfg)
		if len(evs) != cfg.Jobs {
			t.Fatalf("%s: %d events, want %d", shape, len(evs), cfg.Jobs)
		}
		var prev int64 = -1
		for i, e := range evs {
			if e.Seq != i {
				t.Fatalf("%s: seq[%d] = %d", shape, i, e.Seq)
			}
			if e.AtUS < prev {
				t.Fatalf("%s: at_us goes backwards at %d: %d < %d", shape, i, e.AtUS, prev)
			}
			prev = e.AtUS
			if shape == ShapeClosed {
				if e.Client < 0 || e.Client >= clients {
					t.Fatalf("%s: client %d out of range", shape, e.Client)
				}
			} else if e.Client != -1 {
				t.Fatalf("%s: open-loop event has client %d", shape, e.Client)
			}
		}
	}
}

func TestTimelineDeterministic(t *testing.T) {
	for _, shape := range Shapes() {
		cfg := ArrivalConfig{Shape: shape, Jobs: 300, RatePerSec: 5000}
		a := TimelineFingerprint(tlOf(t, 7, cfg))
		b := TimelineFingerprint(tlOf(t, 7, cfg))
		c := TimelineFingerprint(tlOf(t, 8, cfg))
		if a != b {
			t.Fatalf("%s: same seed produced different timelines", shape)
		}
		if a == c {
			t.Fatalf("%s: different seeds produced identical timelines", shape)
		}
	}
}

// TestStreamPartitioning: consuming draws from one class must not shift
// another class's sequence — the property that lets the mix change without
// perturbing arrivals and vice versa.
func TestStreamPartitioning(t *testing.T) {
	cfg := ArrivalConfig{Shape: ShapeBursty, Jobs: 200, RatePerSec: 1000}

	clean := NewPartitionedRNG(11)
	want := TimelineFingerprint(tlOf2(t, clean, cfg))

	dirty := NewPartitionedRNG(11)
	for i := 0; i < 1000; i++ { // burn unrelated streams first
		dirty.Stream(ClassMix).Next()
		dirty.Stream(ClassPayload).Next()
	}
	if got := TimelineFingerprint(tlOf2(t, dirty, cfg)); got != want {
		t.Fatalf("arrival stream shifted by draws on other classes: %s != %s", got, want)
	}
}

func tlOf2(t *testing.T, rng *PartitionedRNG, cfg ArrivalConfig) []Arrival {
	t.Helper()
	evs, err := Timeline(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestBurstyIsBursty: the MMPP timeline's gap distribution must actually be
// bimodal — the burst-phase median gap far below the calm-phase median.
func TestBurstyIsBursty(t *testing.T) {
	evs := tlOf(t, 3, ArrivalConfig{Shape: ShapeBursty, Jobs: 4000, RatePerSec: 1000})
	short, long := 0, 0
	meanGapUS := int64(1000) // 1000/s base rate
	for i := 1; i < len(evs); i++ {
		gap := evs[i].AtUS - evs[i-1].AtUS
		if gap*4 < meanGapUS {
			short++
		}
		if gap > meanGapUS*4 {
			long++
		}
	}
	if short < len(evs)/10 || long < len(evs)/100 {
		t.Fatalf("gap distribution not bimodal: %d short, %d long of %d", short, long, len(evs))
	}
}

func TestTimelineValidation(t *testing.T) {
	bad := []ArrivalConfig{
		{Shape: ShapePoisson, Jobs: 0, RatePerSec: 1},
		{Shape: ShapePoisson, Jobs: 10},
		{Shape: "sawtooth", Jobs: 10, RatePerSec: 1},
	}
	for _, cfg := range bad {
		_, err := Timeline(NewPartitionedRNG(1), cfg)
		var mis *diag.MisuseError
		if !errors.As(err, &mis) || !errors.Is(err, diag.ErrBadConfig) {
			t.Fatalf("%+v: err = %v, want typed MisuseError/ErrBadConfig", cfg, err)
		}
	}
}

// TestClosedLoopClientStreamsDistinct: per-client think labels hash into a
// bounded id range, and two clients on one id would draw the identical think
// stream. The closed loop's clients are collision-free: the timeline is
// accepted, every client issues, and no two clients' think gaps agree.
func TestClosedLoopClientStreamsDistinct(t *testing.T) {
	evs := tlOf(t, 1, ArrivalConfig{Shape: ShapeClosed, Jobs: 64, RatePerSec: 1000})
	gaps := make([]string, clients)
	last := make([]int64, clients)
	for _, e := range evs {
		gaps[e.Client] += fmt.Sprintf("%d ", e.AtUS-last[e.Client])
		last[e.Client] = e.AtUS
	}
	seen := map[string]int{}
	for c, g := range gaps {
		if g == "" {
			t.Fatalf("client %d issued nothing", c)
		}
		if prev, ok := seen[g]; ok {
			t.Fatalf("clients %d and %d drew the same think stream", prev, c)
		}
		seen[g] = c
	}
}

func TestMixSynthesizeDeterministic(t *testing.T) {
	for _, spec := range DefaultMixes() {
		a, err := Synthesize(NewPartitionedRNG(5), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, err := Synthesize(NewPartitionedRNG(5), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(a.Progs) != len(b.Progs) {
			t.Fatalf("%s: pool sizes differ", spec.Name)
		}
		for i := range a.Progs {
			if a.Progs[i] != b.Progs[i] {
				t.Fatalf("%s: pool[%d] differs across same-seed synthesis", spec.Name, i)
			}
		}
		if len(a.Progs) != 16 {
			t.Fatalf("%s: pool size %d, want default 16", spec.Name, len(a.Progs))
		}
	}
}
