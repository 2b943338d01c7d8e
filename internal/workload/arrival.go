package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// Shape names one arrival process.
type Shape string

const (
	// ShapePoisson is an open-loop Poisson process: i.i.d. exponential
	// inter-arrival gaps at RatePerSec.
	ShapePoisson Shape = "poisson"
	// ShapeBursty is a two-state Markov-modulated Poisson process: phases
	// alternate between a burst state (rate × burstFactor) and a calm state
	// (rate ÷ burstFactor), with seeded phase lengths.
	ShapeBursty Shape = "bursty"
	// ShapeDiurnal modulates the base rate by a periodic piecewise-constant
	// curve (the "hour of day" profile, diurnalCurve), generated by thinning
	// against the curve's maximum weight.
	ShapeDiurnal Shape = "diurnal"
	// ShapeClosed is a closed loop: clients virtual users, each submitting,
	// thinking for an exponential thinkUS, then submitting again. The
	// timeline is the deterministic merge of the per-client think streams;
	// the driver additionally serializes each client (at most one job in
	// flight per client).
	ShapeClosed Shape = "closed"
)

// Shapes returns the shapes in a fixed order.
func Shapes() []Shape {
	return []Shape{ShapePoisson, ShapeBursty, ShapeDiurnal, ShapeClosed}
}

// Arrival is one event of a traffic timeline.
type Arrival struct {
	// Seq is the submission index, dense from 0 in timeline order.
	Seq int `json:"seq"`
	// AtUS is the arrival offset from the run start, in microseconds.
	AtUS int64 `json:"at_us"`
	// Client is the issuing virtual client (closed loop only; -1 when open
	// loop). The driver allows at most one in-flight job per client.
	Client int `json:"client"`
}

// ArrivalConfig parameterizes a timeline.
type ArrivalConfig struct {
	Shape Shape
	// Jobs is the total number of arrivals to generate.
	Jobs int
	// RatePerSec is the mean arrival rate (base rate for bursty/diurnal).
	RatePerSec float64
}

// The shapes' fixed parameters.
const (
	burstFactor = 8         // the rate's scale up in burst phases and down in calm ones
	burstLen    = 32        // mean arrivals per burst phase
	calmLen     = 96        // mean arrivals per calm phase
	periodUS    = 1_000_000 // the diurnal period: a compressed "day" of 1s
	thinkUS     = 2000      // a closed-loop client's mean think time
	clients     = 8         // the closed loop's virtual users
)

// diurnalCurve is the diurnal weight per equal bucket of the period: a
// 12-bucket day/night profile, every weight positive.
var diurnalCurve = [...]int{1, 1, 2, 4, 7, 9, 10, 9, 8, 6, 3, 2}

func misuse(format string, args ...any) error {
	return &diag.MisuseError{Op: "workload.Timeline", ThreadID: -1, Kind: diag.ErrBadConfig, Detail: fmt.Sprintf(format, args...)}
}

func (c *ArrivalConfig) validate() error {
	if c.Jobs <= 0 {
		return misuse("Jobs must be positive, got %d", c.Jobs)
	}
	if c.RatePerSec <= 0 {
		return misuse("RatePerSec must be positive, got %g", c.RatePerSec)
	}
	return nil
}

// expGapUS draws one exponential inter-arrival gap at ratePerSec, floored at
// 1µs so timelines strictly advance.
func expGapUS(r *detrand.Rand, ratePerSec float64) int64 {
	u := r.Float()
	gap := int64(-math.Log(1-u) * 1e6 / ratePerSec)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// Timeline generates the arrival sequence for cfg, drawing every decision
// from rng's partitioned streams. The result is sorted by (AtUS, Client) and
// densely renumbered; the same (rng seed, cfg) always yields the same
// timeline.
func Timeline(rng *PartitionedRNG, cfg ArrivalConfig) ([]Arrival, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Shape {
	case ShapePoisson:
		return openLoop(rng.Stream(ClassArrival), cfg, func(r *detrand.Rand, _ int) int64 {
			return expGapUS(r, cfg.RatePerSec)
		}), nil
	case ShapeBursty:
		return burstyTimeline(rng.Stream(ClassArrival), cfg), nil
	case ShapeDiurnal:
		return diurnalTimeline(rng.Stream(ClassArrival), cfg), nil
	case ShapeClosed:
		// Per-client labels hash into a bounded id range; two clients on one
		// id would draw the identical think stream, so a collision is an error.
		return closedTimeline(rng, cfg), rng.Err()
	default:
		return nil, misuse("unknown arrival shape %q", cfg.Shape)
	}
}

// openLoop emits Jobs arrivals with gaps drawn by gap(r, i).
func openLoop(r *detrand.Rand, cfg ArrivalConfig, gap func(*detrand.Rand, int) int64) []Arrival {
	evs := make([]Arrival, cfg.Jobs)
	var at int64
	for i := 0; i < cfg.Jobs; i++ {
		at += gap(r, i)
		evs[i] = Arrival{Seq: i, AtUS: at, Client: -1}
	}
	return evs
}

// burstyTimeline alternates burst/calm phases; phase lengths are uniform in
// [1, 2×mean) so the expected length matches the configured mean.
func burstyTimeline(r *detrand.Rand, cfg ArrivalConfig) []Arrival {
	burst := true
	left := 1 + r.IntN(2*burstLen)
	return openLoop(r, cfg, func(r *detrand.Rand, _ int) int64 {
		rate := cfg.RatePerSec * burstFactor
		if !burst {
			rate = cfg.RatePerSec / burstFactor
		}
		g := expGapUS(r, rate)
		if left--; left <= 0 {
			burst = !burst
			mean := burstLen
			if !burst {
				mean = calmLen
			}
			left = 1 + r.IntN(2*mean)
		}
		return g
	})
}

// diurnalTimeline thins a max-rate Poisson stream against the curve: a
// candidate at time t survives with probability weight(t)/maxWeight. Only
// integer comparisons decide acceptance, so the shape of the curve can
// change without floating-point sensitivity.
func diurnalTimeline(r *detrand.Rand, cfg ArrivalConfig) []Arrival {
	maxW, sumW := 0, 0
	for _, w := range diurnalCurve {
		maxW = max(maxW, w)
		sumW += w
	}
	meanW := float64(sumW) / float64(len(diurnalCurve))
	// Candidate rate such that the accepted mean rate is RatePerSec.
	maxRate := cfg.RatePerSec * float64(maxW) / meanW
	const bucketUS = periodUS / int64(len(diurnalCurve))
	evs := make([]Arrival, 0, cfg.Jobs)
	var at int64
	for len(evs) < cfg.Jobs {
		at += expGapUS(r, maxRate)
		bucket := (at / bucketUS) % int64(len(diurnalCurve))
		if r.IntN(maxW) < diurnalCurve[bucket] {
			evs = append(evs, Arrival{Seq: len(evs), AtUS: at, Client: -1})
		}
	}
	return evs
}

// closedTimeline merges per-client think streams: client c's k-th arrival
// happens after k think draws from its own stream. Each client's stream is a
// distinct partitioned class, so adding clients never perturbs existing
// ones. Ties sort by client id.
func closedTimeline(rng *PartitionedRNG, cfg ArrivalConfig) []Arrival {
	per := cfg.Jobs / clients
	extra := cfg.Jobs % clients
	evs := make([]Arrival, 0, cfg.Jobs)
	for c := 0; c < clients; c++ {
		n := per
		if c < extra {
			n++
		}
		r := rng.Stream(fmt.Sprintf("%s/%d", ClassThink, c))
		var at int64
		for k := 0; k < n; k++ {
			at += expGapUS(r, 1e6/float64(thinkUS))
			evs = append(evs, Arrival{AtUS: at, Client: c})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].AtUS != evs[j].AtUS {
			return evs[i].AtUS < evs[j].AtUS
		}
		return evs[i].Client < evs[j].Client
	})
	for i := range evs {
		evs[i].Seq = i
	}
	return evs
}
