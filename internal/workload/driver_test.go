package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/irgen"
	"repro/internal/service"
)

// liteGen keeps property-test programs small: pool synthesis and first-time
// simulation dominate test wall-clock, not the repeat submissions.
func liteGen() irgen.Config {
	return irgen.Config{Funcs: 2, MaxDepth: 2, MaxBodyLen: 4, LoopIters: 3}
}

// liteMix is a small blended pool across generic + two idiom families.
func liteMix() MixSpec {
	return MixSpec{
		Name:          "blend",
		GenericWeight: 1,
		GenericSync:   true,
		IdiomWeights:  map[irgen.Idiom]int{irgen.IdiomBarrierPhases: 1, irgen.IdiomRing: 1},
		PoolSize:      6,
		Threads:       3,
		Gen:           liteGen(),
	}
}

func TestRunSingleNodeSmoke(t *testing.T) {
	out, err := Run(context.Background(), RunConfig{
		Seed:    101,
		Arrival: ArrivalConfig{Shape: ShapePoisson, Jobs: 60, RatePerSec: 5000},
		Mix:     liteMix(),
		Nodes:   1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Submitted != 60 || out.Completed != 60 || out.Failed != 0 || out.Rejected != 0 {
		t.Fatalf("loss: %+v", out)
	}
	if len(out.cores) == 0 || out.CoreFingerprint == "" {
		t.Fatal("no deterministic cores recorded")
	}
	if out.DistinctPrograms != 6 {
		t.Fatalf("pool = %d, want 6", out.DistinctPrograms)
	}
}

// TestWorkloadPropertyMatrix is the acceptance property: across seeds,
// arrival shapes, and topologies (single node and 3-node cluster), every
// submitted job completes exactly once — zero lost, zero duplicated — and
// the deterministic cores are byte-identical across runs AND across
// topologies for the same seed.
func TestWorkloadPropertyMatrix(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	shapes := []Shape{ShapePoisson, ShapeBursty, ShapeClosed}
	for seed := 1; seed <= seeds; seed++ {
		for _, shape := range shapes {
			arrival := ArrivalConfig{Shape: shape, Jobs: 40, RatePerSec: 10000}
			var coresByNodes [2]map[string]string
			var fps [2]string
			for i, nodes := range []int{1, 3} {
				out, err := Run(context.Background(), RunConfig{
					Seed:    int64(seed) * 7919,
					Arrival: arrival,
					Mix:     liteMix(),
					Nodes:   nodes,
				})
				if err != nil {
					t.Fatalf("seed %d %s nodes %d: %v", seed, shape, nodes, err)
				}
				if out.Submitted != arrival.Jobs {
					t.Fatalf("seed %d %s nodes %d: submitted %d, want %d (duplicated or dropped arrivals)",
						seed, shape, nodes, out.Submitted, arrival.Jobs)
				}
				if out.Completed != out.Submitted || out.Failed != 0 || out.Rejected != 0 {
					t.Fatalf("seed %d %s nodes %d: lost jobs: %+v", seed, shape, nodes, out)
				}
				coresByNodes[i] = out.cores
				fps[i] = out.CoreFingerprint
			}
			// Topology must not leak into deterministic cores: the same
			// seeded workload yields the same per-program cores on one node
			// and on three.
			if fps[0] != fps[1] {
				t.Fatalf("seed %d %s: core fingerprint differs across topologies: %s vs %s",
					seed, shape, fps[0], fps[1])
			}
			for name, core := range coresByNodes[0] {
				if got := coresByNodes[1][name]; got != core {
					t.Fatalf("seed %d %s: program %s core %q (1 node) vs %q (3 nodes)",
						seed, shape, name, core, got)
				}
			}
		}
	}
}

// TestClusterNemesisKeepsCores: transport faults (flaky links, latency) may
// slow peer fills but must never change deterministic cores or lose jobs.
func TestClusterNemesisKeepsCores(t *testing.T) {
	base, err := Run(context.Background(), RunConfig{
		Seed:    77,
		Arrival: ArrivalConfig{Shape: ShapePoisson, Jobs: 30, RatePerSec: 10000},
		Mix:     liteMix(),
		Nodes:   3,
	})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	for _, nem := range []Nemesis{NemesisFlaky, NemesisSlow} {
		out, err := Run(context.Background(), RunConfig{
			Seed:    77,
			Arrival: ArrivalConfig{Shape: ShapePoisson, Jobs: 30, RatePerSec: 10000},
			Mix:     liteMix(),
			Nodes:   3,
			Nemesis: nem,
		})
		if err != nil {
			t.Fatalf("%s: %v", nem, err)
		}
		if out.Completed != out.Submitted || out.Failed != 0 {
			t.Fatalf("%s: lost jobs: %+v", nem, out)
		}
		if out.CoreFingerprint != base.CoreFingerprint {
			t.Fatalf("%s: transport faults changed cores: %s vs %s", nem, out.CoreFingerprint, base.CoreFingerprint)
		}
	}
}

// TestBurstyAdmissionDeterministic is the admission-control property: with
// one worker pinned by a slow plug job, a seeded bursty arrival stream hits
// a full queue, and the full accept/429/Retry-After outcome sequence —
// position by position — is byte-identical across two identically seeded
// runs, with every accepted job completing (zero lost).
func TestBurstyAdmissionDeterministic(t *testing.T) {
	const depth = 8
	run := func() (string, service.StatsSnapshot) {
		evs := tlOf(t, 31, ArrivalConfig{Shape: ShapeBursty, Jobs: depth + 12, RatePerSec: 1000})
		mix, err := Synthesize(NewPartitionedRNG(31), liteMix())
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{Workers: 1, QueueDepth: depth})
		plugID, err := svc.Submit(service.Request{Source: plugSource, Entry: "main", Threads: 1})
		if err != nil {
			t.Fatalf("plug: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := svc.Lookup(plugID)
			if err != nil {
				t.Fatal(err)
			}
			if v.Status != service.StatusQueued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("plug never started")
			}
			time.Sleep(time.Millisecond)
		}

		// Burst: submit every arrival in timeline order while the worker is
		// pinned. The plug runs ~40ms; this loop takes microseconds.
		var (
			log      strings.Builder
			accepted []string
		)
		picks := make([]Program, len(evs))
		for i := range evs {
			picks[i] = mix.Pick(NewPartitionedRNG(31).Stream(ClassMix))
		}
		for i := range evs {
			id, err := svc.Submit(service.Request{Source: picks[i].Source, Entry: "main", Threads: picks[i].Threads})
			if err != nil {
				fmt.Fprintf(&log, "%d reject %s retry-after=%d\n", i, service.Classify(err), service.RetryAfter(err))
				continue
			}
			fmt.Fprintf(&log, "%d accept\n", i)
			accepted = append(accepted, id)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, id := range accepted {
			if _, err := svc.Wait(ctx, id); err != nil {
				t.Fatalf("accepted job %s lost: %v", id, err)
			}
		}
		snap := svc.Snapshot()
		if err := svc.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return log.String(), snap
	}

	seqA, snapA := run()
	seqB, snapB := run()
	if seqA != seqB {
		t.Fatalf("admission outcome sequences differ across identical seeded runs:\n--- A ---\n%s--- B ---\n%s", seqA, seqB)
	}
	if !strings.Contains(seqA, "reject queue_full retry-after=1") {
		t.Fatalf("burst never hit the full queue:\n%s", seqA)
	}
	if n := strings.Count(seqA, "accept"); n != depth {
		t.Fatalf("accepted %d, want exactly queue depth %d", n, depth)
	}
	for _, snap := range []service.StatsSnapshot{snapA, snapB} {
		if snap.QueueHighWater != depth {
			t.Fatalf("QueueHighWater = %d, want %d", snap.QueueHighWater, depth)
		}
		if snap.RejectByCause["queue_full"] != 12 {
			t.Fatalf("RejectByCause[queue_full] = %d, want 12", snap.RejectByCause["queue_full"])
		}
	}
}

// plugSource pins a worker for ~40ms (1M-iteration spin).
const plugSource = `
module plug

func main() regs 4 {
entry:
  r0 = const 0
  r1 = const 1000000
  jmp loop
loop:
  r2 = lt r0, r1
  br r2, body, exit
body:
  r0 = add r0, 1
  jmp loop
exit:
  ret r0
}
`
