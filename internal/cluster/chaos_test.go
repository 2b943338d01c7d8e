package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/service"
)

// chaosVariant pairs a request with its reference deterministic core.
type chaosVariant struct {
	req  service.Request
	core string
}

// TestClusterChaosProperty is the cluster's crash/partition property test:
// across 20 seeded fault schedules mixing node kills, restarts, network
// partitions, heals, probe rounds and steal rounds into a stream of job
// submissions, the cluster loses no job, duplicates no job, and every
// result's deterministic core is byte-identical to a reference computed on
// an isolated single-process service. The schedules are drawn from
// detrand.Rand, so a failure replays exactly from its seed.
//
// The property leans on the layering under test: journals make accepted jobs
// durable per node, recovery re-executes what a kill interrupted, reclaim
// timers undo steals whose stealer died, peer fills fall back to local
// recomputation across partitions — and weak determinism makes every one of
// those retries produce the same bytes the lost execution would have.
func TestClusterChaosProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos property is not a -short test")
	}

	// Reference cores, computed once on a bare service.
	srcs := []string{srcOf(t, "ocean"), srcOf(t, "volrend")}
	ref := service.New(service.Config{Workers: 4})
	var variants []chaosVariant
	for _, src := range srcs {
		for seed := int64(0); seed < 4; seed++ {
			req := service.Request{Source: src, PerturbSeed: seed}
			res, err := ref.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("reference execution: %v", err)
			}
			variants = append(variants, chaosVariant{req: req, core: res.Core()})
		}
	}
	ref.Close(context.Background())

	for seed := 1; seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule-%02d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSchedule(t, int64(seed), variants)
		})
	}
}

func runChaosSchedule(t *testing.T, seed int64, variants []chaosVariant) {
	rng := detrand.New(seed, 5)
	names := []string{"node-a", "node-b", "node-c"}
	net := NewLoopNet()
	dir := t.TempDir()
	ctx := context.Background()

	mk := func(name string) *Node {
		n, err := Open(Config{
			Self:          name,
			Peers:         names,
			Client:        net.Client(name),
			ProbeInterval: -1,
			StealInterval: -1,
			ShipInterval:  -1,
			ProbeTimeout:  time.Second,
			FillTimeout:   500 * time.Millisecond,
			FailThreshold: 1, // one failed probe marks down: fastest degradation
			Service: service.Config{
				Workers:       2,
				JournalPath:   filepath.Join(dir, name+".journal"),
				StealReclaim:  50 * time.Millisecond,
				SelfCheckRate: 0.25,
				SelfCheckSeed: seed,
			},
		})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		net.Register(name, n.Handler())
		return n
	}

	nodes := map[string]*Node{}
	alive := map[string]bool{}
	for _, name := range names {
		nodes[name] = mk(name)
		alive[name] = true
	}
	countAlive := func() int {
		c := 0
		for _, a := range alive {
			if a {
				c++
			}
		}
		return c
	}

	// submitted[name] = job ids accepted by node `name` across all its
	// incarnations; the property is that every one of them finishes.
	submitted := map[string][]string{}
	variantOf := map[string]string{} // id@node -> expected core

	for op := 0; op < 28; op++ {
		switch rng.IntN(8) {
		case 0, 1, 2, 3: // submit to a random live node
			name := names[rng.IntN(len(names))]
			if !alive[name] {
				continue
			}
			v := variants[rng.IntN(len(variants))]
			id, err := nodes[name].Service().Submit(v.req)
			if err != nil {
				t.Fatalf("op %d: submit to %s: %v", op, name, err)
			}
			submitted[name] = append(submitted[name], id)
			variantOf[id+"@"+name] = v.core
		case 4: // kill a node (keep a majority of the group up)
			if countAlive() < 3 {
				continue
			}
			name := names[rng.IntN(len(names))]
			if !alive[name] {
				continue
			}
			nodes[name].Kill()
			net.Deregister(name)
			alive[name] = false
		case 5: // restart a dead node on its own journal
			for _, name := range names {
				if !alive[name] {
					nodes[name] = mk(name)
					alive[name] = true
					break
				}
			}
		case 6: // partition or heal a random pair
			a := names[rng.IntN(len(names))]
			b := names[rng.IntN(len(names))]
			if a == b {
				continue
			}
			if rng.IntN(2) == 0 {
				net.Partition(a, b)
			} else {
				net.Heal(a, b)
			}
		case 7: // a probe + steal round on every live node
			for _, name := range names {
				if alive[name] {
					nodes[name].ProbeOnce(ctx)
					nodes[name].StealOnce(ctx)
				}
			}
		}
	}

	// Convergence: heal the network, restart the dead, settle membership.
	net.HealAll()
	for _, name := range names {
		if !alive[name] {
			nodes[name] = mk(name)
			alive[name] = true
		}
	}
	for _, name := range names {
		nodes[name].ProbeOnce(ctx)
	}

	// Zero lost jobs, byte-identical cores: every accepted id completes on
	// its node with the reference core.
	for name, ids := range submitted {
		for _, id := range ids {
			res := waitResult(t, nodes[name].Service(), id)
			if want := variantOf[id+"@"+name]; res.Core() != want {
				t.Fatalf("node %s job %s: core %s, want %s", name, id, res.Core(), want)
			}
		}
	}

	// Zero duplicated jobs: each node's journal holds exactly the jobs it
	// accepted — no double-submits from recovery, reclaim, or steal races.
	// Zero divergences: no peer fill, offer, recovery cross-check or
	// self-check ever observed non-identical bytes.
	for _, name := range names {
		snap := nodes[name].Service().Snapshot()
		if snap.JournalJobs != len(submitted[name]) {
			t.Fatalf("node %s journal holds %d jobs, accepted %d", name, snap.JournalJobs, len(submitted[name]))
		}
		if snap.Divergences != 0 {
			t.Fatalf("node %s observed %d divergences", name, snap.Divergences)
		}
	}
	for _, name := range names {
		if err := nodes[name].Close(ctx); err != nil {
			t.Fatalf("close %s: %v", name, err)
		}
	}
}
