package workload

import (
	"context"
	"testing"

	"repro/internal/nemesis"
)

// emptyChurnFP is the fingerprint of a schedule that executed no churn
// events; a run whose fingerprint differs actually churned membership.
var emptyChurnFP = nemesis.Fingerprint(nil)

// TestChurnChaosProperty is the membership-churn acceptance property: across
// 20 seeded schedules (abridged under -short), a
// dynamic-membership cluster under seeded join/drain churn must
//
//   - lose and duplicate nothing: every submitted job completes exactly once;
//   - keep deterministic cores byte-identical to the single-node reference
//     for the same seed — churn may move work, never change answers;
//   - converge: after quiesce every surviving node holds the same view
//     digest, and the final epoch/ring are pure functions of the seed;
//   - replay: re-running a schedule reproduces the identical fault timeline
//     fingerprint, cores, and final epoch.
func TestChurnChaosProperty(t *testing.T) {
	schedules := 20
	if testing.Short() {
		schedules = 4
	}
	churned := 0
	for i := 0; i < schedules; i++ {
		seed := int64(4001 + 131*i)
		arrival := ArrivalConfig{Shape: ShapePoisson, Jobs: 48, RatePerSec: 10000}
		ref, err := Run(context.Background(), RunConfig{
			Seed: seed, Arrival: arrival, Mix: liteMix(), Nodes: 1,
		})
		if err != nil {
			t.Fatalf("seed %d reference: %v", seed, err)
		}
		run := func() *Outcome {
			out, err := Run(context.Background(), RunConfig{
				Seed: seed, Arrival: arrival, Mix: liteMix(),
				Nodes: 4, Nemesis: NemesisChurn,
			})
			if err != nil {
				t.Fatalf("seed %d churn: %v", seed, err)
			}
			return out
		}
		out := run()
		if out.Submitted != arrival.Jobs {
			t.Fatalf("seed %d: submitted %d, want %d (duplicated or dropped arrivals)", seed, out.Submitted, arrival.Jobs)
		}
		if out.Completed != out.Submitted || out.Failed != 0 || out.Rejected != 0 {
			t.Fatalf("seed %d: churn lost jobs: %+v", seed, out)
		}
		if out.CoreFingerprint != ref.CoreFingerprint {
			t.Fatalf("seed %d: churn changed deterministic cores: %s vs reference %s", seed, out.CoreFingerprint, ref.CoreFingerprint)
		}
		for name, core := range ref.cores {
			if got := out.cores[name]; got != core {
				t.Fatalf("seed %d: program %s core %q under churn vs %q single-node", seed, name, got, core)
			}
		}
		if !out.ClusterConverged {
			t.Fatalf("seed %d: surviving nodes did not converge (epoch %d, ring %q)", seed, out.ClusterEpoch, out.ClusterRing)
		}
		if out.ClusterRing == "" || out.ClusterEpoch < 1 {
			t.Fatalf("seed %d: degenerate quiesce state: epoch %d ring %q", seed, out.ClusterEpoch, out.ClusterRing)
		}
		if out.ChurnFingerprint != emptyChurnFP {
			churned++
		}
		// Replay a subset of schedules end to end: same seed, same fault
		// timeline, same cores, same final membership.
		if i%5 == 0 {
			again := run()
			if again.ChurnFingerprint != out.ChurnFingerprint {
				t.Fatalf("seed %d: fault timeline not reproducible: %s vs %s", seed, again.ChurnFingerprint, out.ChurnFingerprint)
			}
			if again.CoreFingerprint != out.CoreFingerprint {
				t.Fatalf("seed %d: replay changed cores: %s vs %s", seed, again.CoreFingerprint, out.CoreFingerprint)
			}
			if again.ClusterEpoch != out.ClusterEpoch || again.ClusterRing != out.ClusterRing {
				t.Fatalf("seed %d: replay membership differs: epoch %d ring %q vs epoch %d ring %q",
					seed, again.ClusterEpoch, again.ClusterRing, out.ClusterEpoch, out.ClusterRing)
			}
		}
	}
	if churned == 0 {
		t.Fatalf("no churn events fired across %d schedules — the property proved nothing", schedules)
	}
}
