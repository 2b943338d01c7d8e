package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/nemesis"
	"repro/internal/service"
	"repro/internal/vfs"
)

// TestClusterNemesisProperty is the cluster's network-fault acceptance
// property: across ≥20 seeded nemesis schedules mixing submissions, node
// kill/restarts, *asymmetric* one-way partitions, seeded flaky links, seeded
// response corruption, heals, and probe/steal rounds, the cluster loses no
// accepted job, duplicates none, and every served result's deterministic core
// is byte-identical to the single-process reference — corrupt peer bytes are
// detected (checksum), the offending path falls back to local recomputation,
// and the corrupting peer is quarantined rather than trusted again.
//
// Like the single-node nemesis property, each schedule is a pure function of
// its seed: the plan fingerprints identically when regenerated, and the
// executed timeline fingerprints identically to the plan.
func TestClusterNemesisProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster nemesis property is not a -short test")
	}

	srcs := []string{srcOf(t, "ocean"), srcOf(t, "volrend")}
	ref := service.New(service.Config{Workers: 4})
	var variants []chaosVariant
	for _, src := range srcs {
		for seed := int64(0); seed < 3; seed++ {
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
			runNemesisClusterSchedule(t, int64(seed), variants)
		})
	}
}

func runNemesisClusterSchedule(t *testing.T, seed int64, variants []chaosVariant) {
	names := []string{"node-a", "node-b", "node-c"}
	ops := []nemesis.OpSpec{
		{Class: nemesis.ClassProcess, Op: "kill-restart", Rate: 0.12},
		{Class: nemesis.ClassProcess, Op: "round", Rate: 0.5},
		{Class: nemesis.ClassNetwork, Op: "cut-oneway", Rate: 0.2, ArgN: len(names)},
		{Class: nemesis.ClassNetwork, Op: "flake", Rate: 0.15, ArgN: len(names)},
		{Class: nemesis.ClassNetwork, Op: "corrupt", Rate: 0.15, ArgN: len(names)},
		{Class: nemesis.ClassNetwork, Op: "heal", Rate: 0.2},
		{Class: nemesis.ClassWorkload, Op: "submit", Rate: 0.9, ArgN: len(variants)},
	}
	planCfg := nemesis.PlanConfig{Steps: 14, Targets: names}
	plan := nemesis.Plan(seed, planCfg, ops)
	if again := nemesis.Plan(seed, planCfg, ops); nemesis.Fingerprint(again) != nemesis.Fingerprint(plan) {
		t.Fatalf("seed %d: two plans disagree", seed)
	}
	eng := nemesis.New(seed)

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
			FailThreshold: 1,
			StealBatch:    2,
			Service: service.Config{
				Workers:       2,
				JournalPath:   filepath.Join(dir, name+".journal"),
				StealReclaim:  50 * time.Millisecond,
				SelfCheckRate: 0.25,
				SelfCheckSeed: seed,
				// Corruption detections feed the breaker by design; the
				// property needs admission to stay open through them so the
				// accounting (not the shedding) is what's under test.
				BreakerThreshold: 1000,
			},
		})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		net.Register(name, n.Handler())
		return n
	}
	nodes := map[string]*Node{}
	for _, name := range names {
		nodes[name] = mk(name)
	}

	submitted := map[string][]string{} // node → accepted job ids
	variantOf := map[string]string{}   // id@node → expected core

	for _, e := range plan {
		switch e.Op {
		case "kill-restart":
			// A crash and immediate reboot on the same journal: accepted jobs
			// are durable, in-flight work re-executes on recovery.
			nodes[e.Target].Kill()
			net.Deregister(e.Target)
			nodes[e.Target] = mk(e.Target)
		case "round":
			for _, name := range names {
				nodes[name].ProbeOnce(ctx)
				nodes[name].StealOnce(ctx)
			}
		case "cut-oneway":
			net.PartitionOneWay(e.Target, names[e.Arg])
		case "flake":
			net.Flake(e.Target, names[e.Arg], 0.4, seed*1000+int64(e.Step))
		case "corrupt":
			net.CorruptResponses(e.Target, names[e.Arg], 0.5, seed*1000+int64(e.Step))
		case "heal":
			net.HealAll()
		case "submit":
			v := variants[e.Arg]
			id, err := nodes[e.Target].Service().Submit(v.req)
			if err != nil {
				t.Fatalf("step %d: submit to %s: %v", e.Step, e.Target, err)
			}
			submitted[e.Target] = append(submitted[e.Target], id)
			variantOf[id+"@"+e.Target] = v.core
		}
		eng.Record(e)
	}
	if got := eng.Fingerprint(); got != nemesis.Fingerprint(plan) {
		t.Fatalf("executed timeline fingerprint %s != plan fingerprint %s", got, nemesis.Fingerprint(plan))
	}

	// Convergence: clean network, enough probe rounds to readmit quarantined
	// peers (FailThreshold=1 → one clean probe per quarantine level).
	net.HealAll()
	for round := 0; round < 2; round++ {
		for _, name := range names {
			nodes[name].ProbeOnce(ctx)
		}
	}

	// Zero lost jobs, corrupt bytes never served: every accepted id completes
	// on its node with the reference core.
	for name, ids := range submitted {
		for _, id := range ids {
			res := waitResult(t, nodes[name].Service(), id)
			if want := variantOf[id+"@"+name]; res.Core() != want {
				t.Fatalf("node %s job %s: core %s, want %s", name, id, res.Core(), want)
			}
		}
	}
	// Zero duplicates, zero undetected divergences.
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

// TestStandbySnapshotFsyncFault: the standby's shipped journal goes through
// the service's filesystem seam, so a disk that fails the snapshot's fsync
// makes the standby answer non-2xx — the batch is not acknowledged, the
// shipped file keeps its previous image — and once the disk recovers the
// shipper's next snapshot resync lands.
func TestStandbySnapshotFsyncFault(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	shipPath := filepath.Join(dir, "shipped.journal")
	ffs := nemesis.NewFaultFS(nemesis.New(1), vfs.OS{}, nemesis.FaultFSConfig{SyncErrRate: 1})
	standby := tnode(t, net, "standby", nil, func(c *Config) {
		c.ShipPath = shipPath
		c.Service.FS = ffs
	})
	primary := tnode(t, net, "primary", nil, func(c *Config) {
		c.Standby = "standby"
		c.Service.JournalPath = filepath.Join(dir, "primary.journal")
	})
	ctx := context.Background()
	defer standby.Close(ctx)
	defer primary.Close(ctx)
	id := mustSubmit(t, primary, service.Request{Source: srcOf(t, "ocean")})
	want := waitResult(t, primary.Service(), id).Core()

	ffs.Arm(true)
	if sent, err := primary.ShipFlush(ctx); err == nil {
		t.Fatalf("snapshot whose fsync failed was acknowledged (%d lines)", sent)
	}
	if raw, _ := os.ReadFile(shipPath); len(raw) != 0 {
		t.Fatalf("unacknowledged snapshot reached the shipped journal (%d bytes)", len(raw))
	}
	if _, err := os.Stat(shipPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed snapshot left its temp file behind: %v", err)
	}
	ffs.Arm(false)
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("resync after the disk recovered: sent %d, err %v", sent, err)
	}
	if st := primary.Stats(); st.ShipFails != 1 || st.ShipBatches != 1 {
		t.Fatalf("ship stats = %+v, want one failure then one batch", st)
	}

	standby.Close(ctx)
	svc, err := service.Open(service.Config{JournalPath: shipPath, Workers: 1})
	if err != nil {
		t.Fatalf("Takeover: %v", err)
	}
	defer svc.Close(ctx)
	if got := waitResult(t, svc, id).Core(); got != want {
		t.Fatalf("takeover core %s, want %s", got, want)
	}
}
