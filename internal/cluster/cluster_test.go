package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/service"
	"repro/internal/splash"
)

// srcOf renders one splash workload to textual IR.
func srcOf(t testing.TB, name string) string {
	t.Helper()
	b, err := splash.New(name, 4)
	if err != nil {
		t.Fatalf("splash.New(%s): %v", name, err)
	}
	return b.Module.String()
}

// tnode opens a node on net with background loops disabled — tests drive
// ProbeOnce / StealOnce / ShipFlush directly so every schedule is
// deterministic.
func tnode(t testing.TB, net *LoopNet, self string, peers []string, mut func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Self:          self,
		Peers:         peers,
		Client:        net.Client(self),
		ProbeInterval: -1,
		StealInterval: -1,
		ShipInterval:  -1,
		ProbeTimeout:  time.Second,
		FillTimeout:   time.Second,
		FailThreshold: 2,
		Service:       service.Config{Workers: 2},
	}
	if mut != nil {
		mut(&cfg)
	}
	n, err := Open(cfg)
	if err != nil {
		t.Fatalf("cluster.Open(%s): %v", self, err)
	}
	net.Register(self, n.Handler())
	return n
}

// waitResult waits for id on svc with a bounded deadline.
func waitResult(t testing.TB, svc *service.Service, id string) *service.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait %s: %v", id, err)
	}
	return res
}

// TestRingStableBalancedMinimalRemap is a generated property over member sets
// of 2–8 nodes and content-address-shaped keys, all drawn from detrand: the
// owner of a key does not depend on the order members are listed in, no node
// owns less than a third of its fair share, and removing or adding one member
// moves only the keys that member owned or gains. Ownership decides which
// result-cache entries a node keeps ahead of peer-filled copies, so a key
// that moved for no reason would cost a simulation somewhere.
func TestRingStableBalancedMinimalRemap(t *testing.T) {
	const sets, keysPerSet = 40, 1500
	rng := detrand.New(38, 0)
	name := func() string { return fmt.Sprintf("node-%08x", rng.Next()>>32) }
	for set := 0; set < sets; set++ {
		members, size := map[string]bool{}, 2+rng.IntN(7)
		for len(members) < size {
			members[name()] = true
		}
		nodes := make([]string, 0, len(members))
		for n := range members {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		shuffled := append([]string(nil), nodes...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		r, rs := newRing(nodes, 64), newRing(shuffled, 64)
		if got := r.nodes(); !reflect.DeepEqual(got, nodes) {
			t.Fatalf("set %d: ring members %v, want %v", set, got, nodes)
		}
		gone := nodes[rng.IntN(len(nodes))]
		var rest []string
		for _, n := range nodes {
			if n != gone {
				rest = append(rest, n)
			}
		}
		joiner := name()
		for members[joiner] {
			joiner = name()
		}
		shrunk, grown := newRing(rest, 64), newRing(append([]string{joiner}, nodes...), 64)

		counts := map[string]int{}
		for k := 0; k < keysPerSet; k++ {
			key := fmt.Sprintf("%016x%016x%016x%016x", rng.Next(), rng.Next(), rng.Next(), rng.Next())
			o := r.owner(key)
			if o2 := rs.owner(key); o2 != o {
				t.Fatalf("set %d key %s: owner %s, or %s with the members reordered", set, key, o, o2)
			}
			counts[o]++
			if no := shrunk.owner(key); no == gone || (no != o) != (o == gone) {
				t.Fatalf("set %d key %s: owner %s became %s when %s left", set, key, o, no, gone)
			}
			if no := grown.owner(key); no != o && no != joiner {
				t.Fatalf("set %d key %s: owner %s became %s when %s joined", set, key, o, no, joiner)
			}
		}
		for _, n := range nodes {
			if counts[n]*3*len(nodes) < keysPerSet {
				t.Fatalf("set %d: %s owns %d of %d keys across %d members, under a third of its share: %v",
					set, n, counts[n], keysPerSet, len(nodes), counts)
			}
		}
	}
}

func TestMembershipFailureThreshold(t *testing.T) {
	net := NewLoopNet()
	peers := []string{"node-a", "node-b"}
	a := tnode(t, net, "node-a", peers, nil)
	b := tnode(t, net, "node-b", peers, nil)
	defer a.Close(context.Background())
	defer b.Close(context.Background())

	ctx := context.Background()
	a.ProbeOnce(ctx)
	if st := a.Peers()["node-b"]; !st.Alive || st.Probes != 1 {
		t.Fatalf("after 1 probe: %+v, want alive", st)
	}

	// Down detection is exactly FailThreshold consecutive failures: one
	// failed probe keeps the peer up, the second (threshold=2) marks it down.
	net.Deregister("node-b")
	a.ProbeOnce(ctx)
	if st := a.Peers()["node-b"]; !st.Alive || st.Failures != 1 {
		t.Fatalf("after 1 failure: %+v, want still alive", st)
	}
	a.ProbeOnce(ctx)
	if st := a.Peers()["node-b"]; st.Alive {
		t.Fatalf("after %d failures: %+v, want down", 2, st)
	}

	// A single success resurrects.
	net.Register("node-b", b.Handler())
	a.ProbeOnce(ctx)
	if st := a.Peers()["node-b"]; !st.Alive || st.Failures != 0 {
		t.Fatalf("after recovery probe: %+v, want alive", st)
	}
}

// keyOwnedBy finds a request variant whose result key is (or is not) owned
// by the given node, so fill/offer tests can pin the topology they exercise.
func keyOwnedBy(t testing.TB, n *Node, src string, want bool) (service.Request, string) {
	t.Helper()
	for seed := int64(0); seed < 64; seed++ {
		req := service.Request{Source: src, PerturbSeed: seed}
		key, err := n.Service().KeyFor(req)
		if err != nil {
			t.Fatalf("KeyFor: %v", err)
		}
		if (n.Owner(key) == n.cfg.Self) == want {
			return req, key
		}
	}
	t.Fatalf("no variant found with ownership=%v in 64 seeds", want)
	return service.Request{}, ""
}

// TestFillsNeverDisplaceOwnedEntries pins the result cache's insertion rule
// under a cluster: a peer-filled copy enters at the cold end, where the next
// copy evicts it. So while the entries for keys a node owns leave one slot
// free, filling more copies of a peer's keys than the cache holds evicts none
// of them. Evicting a copy costs another fill; evicting an owned entry would
// cost a simulation.
func TestFillsNeverDisplaceOwnedEntries(t *testing.T) {
	const capacity, nOwned = 4, 3
	net := NewLoopNet()
	peers := []string{"node-a", "node-b"}
	a := tnode(t, net, "node-a", peers, func(c *Config) { c.Service.ResultCacheSize = capacity })
	b := tnode(t, net, "node-b", peers, nil)
	defer a.Close(context.Background())
	defer b.Close(context.Background())
	src := srcOf(t, "ocean")
	ctx := context.Background()

	var owned, copies []service.Request
	for seed := int64(0); len(owned) < nOwned || len(copies) < 2*capacity; seed++ {
		req := service.Request{Source: src, PerturbSeed: seed}
		key, err := a.Service().KeyFor(req)
		if err != nil {
			t.Fatalf("KeyFor: %v", err)
		}
		if a.Owner(key) == "node-a" {
			owned = append(owned, req)
		} else {
			copies = append(copies, req)
		}
	}
	do := func(n *Node, req service.Request) *service.Result {
		t.Helper()
		res, err := n.Service().Do(ctx, req)
		if err != nil {
			t.Fatalf("Do on %s (seed %d): %v", n.Name(), req.PerturbSeed, err)
		}
		return res
	}
	for _, req := range owned[:nOwned] {
		do(a, req)
	}
	for _, req := range copies[:2*capacity] {
		do(b, req)
		if res := do(a, req); !res.PeerFilled {
			t.Fatalf("seed %d: a copy of node-b's key was not peer-filled", req.PerturbSeed)
		}
	}
	before := a.Service().Snapshot()
	if before.PeerFills != 2*capacity || before.ResultCacheSize != capacity {
		t.Fatalf("after the fills: %d peer fills, %d cached; want %d and %d",
			before.PeerFills, before.ResultCacheSize, 2*capacity, capacity)
	}
	for _, req := range owned[:nOwned] {
		if res := do(a, req); !res.Cached {
			t.Fatalf("seed %d: owned key evicted by peer-filled copies", req.PerturbSeed)
		}
	}
	after := a.Service().Snapshot()
	if after.ResultCacheMisses != before.ResultCacheMisses || after.PeerFills != before.PeerFills {
		t.Fatalf("owned keys cost %d misses and %d fills, want none",
			after.ResultCacheMisses-before.ResultCacheMisses, after.PeerFills-before.PeerFills)
	}
}

func TestPeerFillHitFallbackAndOffer(t *testing.T) {
	net := NewLoopNet()
	peers := []string{"node-a", "node-b", "node-c"}
	a := tnode(t, net, "node-a", peers, nil)
	b := tnode(t, net, "node-b", peers, nil)
	c := tnode(t, net, "node-c", peers, nil)
	nodes := map[string]*Node{"node-a": a, "node-b": b, "node-c": c}
	defer a.Close(context.Background())
	defer b.Close(context.Background())
	defer c.Close(context.Background())
	src := srcOf(t, "ocean")
	ctx := context.Background()

	// --- Fill hit: owner computes, non-owner fills from it. ---
	req, key := keyOwnedBy(t, a, src, false) // some peer of a owns this key
	owner := nodes[a.Owner(key)]
	ownerRes := waitResult(t, owner.Service(), mustSubmit(t, owner, req))
	fillRes := waitResult(t, a.Service(), mustSubmit(t, a, req))
	if !fillRes.PeerFilled {
		t.Fatalf("non-owner result not peer-filled: %+v", fillRes)
	}
	if fillRes.Core() != ownerRes.Core() {
		t.Fatalf("peer-filled core %s, want %s", fillRes.Core(), ownerRes.Core())
	}
	if st := a.Stats(); st.FillHits != 1 || st.FillAttempts != 1 {
		t.Fatalf("fill stats = %+v, want one attempt, one hit", st)
	}
	if st := owner.Stats(); st.FillsServed != 1 {
		t.Fatalf("owner served %d fills, want 1", st.FillsServed)
	}

	// --- Partition fallback: the owner is unreachable; the job computes
	// locally with zero client-visible error. ---
	req2, key2 := keyOwnedBy(t, b, src, false)
	owner2 := b.Owner(key2)
	net.Partition("node-b", owner2)
	partRes := waitResult(t, b.Service(), mustSubmit(t, b, req2))
	if partRes.PeerFilled {
		t.Fatal("fill reported through a partition")
	}
	want := waitResult(t, nodes[owner2].Service(), mustSubmit(t, nodes[owner2], req2))
	if partRes.Core() != want.Core() {
		t.Fatalf("partitioned local core %s, want %s", partRes.Core(), want.Core())
	}
	net.Heal("node-b", owner2)

	// --- Probe-informed skip: once the owner is known-down, fills skip the
	// network entirely. ---
	req3, key3 := keyOwnedBy(t, c, src, false)
	owner3 := c.Owner(key3)
	net.Deregister(owner3)
	c.ProbeOnce(ctx)
	c.ProbeOnce(ctx) // FailThreshold=2
	before := c.Stats().FillAttempts
	skipRes := waitResult(t, c.Service(), mustSubmit(t, c, req3))
	if skipRes.PeerFilled {
		t.Fatal("fill reported from a down owner")
	}
	st := c.Stats()
	if st.FillAttempts != before || st.FillSkips == 0 {
		t.Fatalf("down-owner fill stats = %+v, want skip without attempt", st)
	}
	net.Register(owner3, nodes[owner3].Handler())
	c.ProbeOnce(ctx)

	// --- Offer backfill: a non-owner that computed locally pushes the entry
	// to the owner, whose next lookup is a cache hit. ---
	// req2's owner never computed req2 — but node-b offered it the result
	// during the partition (failed) and recomputation is what we just did.
	// Submit a fresh variant instead to watch the full offer path.
	req4, key4 := keyOwnedBy(t, a, srcOf(t, "water-nsq"), false)
	owner4 := nodes[a.Owner(key4)]
	if _, ok := owner4.Service().ResultByKey(key4); ok {
		t.Fatalf("owner already has %s", key4)
	}
	localRes := waitResult(t, a.Service(), mustSubmit(t, a, req4))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := owner4.Service().ResultByKey(key4); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("offer for %s never landed on owner", key4)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ownerHit := waitResult(t, owner4.Service(), mustSubmit(t, owner4, req4))
	if !ownerHit.Cached {
		t.Fatal("owner lookup after offer was not a cache hit")
	}
	if ownerHit.Core() != localRes.Core() {
		t.Fatalf("offered core %s, want %s", ownerHit.Core(), localRes.Core())
	}
}

func mustSubmit(t testing.TB, n *Node, req service.Request) string {
	t.Helper()
	id, err := n.Service().Submit(req)
	if err != nil {
		t.Fatalf("Submit on %s: %v", n.cfg.Self, err)
	}
	return id
}

func TestWorkStealingDrains(t *testing.T) {
	net := NewLoopNet()
	peers := []string{"node-a", "node-b"}
	victim := tnode(t, net, "node-a", peers, func(c *Config) {
		c.Service.Workers = 1
		c.Service.StealReclaim = 30 * time.Second // completions, not reclaims
		c.StealBatch = 4
	})
	thief := tnode(t, net, "node-b", peers, func(c *Config) {
		c.StealBatch = 4
	})
	defer victim.Close(context.Background())
	defer thief.Close(context.Background())
	src := srcOf(t, "volrend")
	ctx := context.Background()

	var ids []string
	for i := 0; i < 10; i++ {
		ids = append(ids, mustSubmit(t, victim, service.Request{Source: src, PerturbSeed: int64(i)}))
	}
	thief.ProbeOnce(ctx) // learn the victim's queue depth
	n := thief.StealOnce(ctx)
	if n == 0 {
		t.Skip("victim drained its queue before the steal round")
	}
	for i, id := range ids {
		res := waitResult(t, victim.Service(), id)
		w, err := thief.Service().ExecuteDetached(ctx, service.Request{Source: src, PerturbSeed: int64(i)})
		if err != nil {
			t.Fatalf("reference execution: %v", err)
		}
		if res.Core() != w.Core() {
			t.Fatalf("job %s core %s, want %s", id, res.Core(), w.Core())
		}
	}
	st := thief.Stats()
	if st.StealsDone != int64(n) || st.CompletesSent == 0 {
		t.Fatalf("thief stats = %+v after stealing %d", st, n)
	}
	if snap := victim.Service().Snapshot(); snap.JobsStolen != int64(n) {
		t.Fatalf("victim counted %d stolen, thief took %d", snap.JobsStolen, n)
	}
	remotes := 0
	for _, id := range ids {
		if v, err := victim.Service().Lookup(id); err == nil && v.Result != nil && v.Result.Remote {
			remotes++
		}
	}
	if remotes == 0 {
		t.Fatal("no job completed remotely despite successful steals")
	}
}

func TestJournalShippingAndTakeover(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	shipPath := filepath.Join(dir, "shipped.journal")
	standby := tnode(t, net, "standby", nil, func(c *Config) {
		c.ShipPath = shipPath
	})
	primary := tnode(t, net, "primary", nil, func(c *Config) {
		c.Standby = "standby"
		c.Service.JournalPath = filepath.Join(dir, "primary.journal")
	})
	src := srcOf(t, "ocean")
	ctx := context.Background()

	// Finished work ships (first flush opens the epoch with a snapshot).
	cores := map[string]string{}
	for i := 0; i < 3; i++ {
		id := mustSubmit(t, primary, service.Request{Source: src, PerturbSeed: int64(i)})
		cores[id] = waitResult(t, primary.Service(), id).Core()
	}
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("first flush: sent %d, err %v", sent, err)
	}

	// Standby restart: the fresh store knows no epoch, the next incremental
	// batch gaps (409), and the shipper self-heals with a snapshot resync.
	id := mustSubmit(t, primary, service.Request{Source: src, PerturbSeed: 50})
	cores[id] = waitResult(t, primary.Service(), id).Core()
	if err := standby.Close(ctx); err != nil {
		t.Fatalf("standby close: %v", err)
	}
	standby = tnode(t, net, "standby", nil, func(c *Config) {
		c.ShipPath = shipPath
	})
	if _, err := primary.ShipFlush(ctx); err == nil {
		t.Fatal("flush into a restarted standby did not gap")
	}
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("resync flush: sent %d, err %v", sent, err)
	}
	if st := primary.Stats(); st.ShipFails == 0 || st.ShipBatches < 2 {
		t.Fatalf("ship stats = %+v, want a failure and ≥2 batches", st)
	}

	// In-flight work at crash time: submitted records shipped, finishes
	// possibly not — takeover must re-execute, not lose.
	var tail []string
	for i := 0; i < 3; i++ {
		tail = append(tail, mustSubmit(t, primary, service.Request{Source: src, PerturbSeed: int64(100 + i)}))
	}
	if _, err := primary.ShipFlush(ctx); err != nil {
		t.Fatalf("tail flush: %v", err)
	}
	for _, id := range tail {
		cores[id] = waitResult(t, primary.Service(), id).Core()
	}
	primary.Kill()
	net.Deregister("primary")
	if err := standby.Close(ctx); err != nil {
		t.Fatalf("standby close before takeover: %v", err)
	}

	// Warm takeover: open the engine on the shipped journal.
	svc, err := service.Open(service.Config{JournalPath: shipPath, Workers: 2})
	if err != nil {
		t.Fatalf("Takeover: %v", err)
	}
	defer svc.Close(context.Background())
	for id, want := range cores {
		res := waitResult(t, svc, id)
		if res.Core() != want {
			t.Fatalf("takeover job %s core %s, want %s", id, res.Core(), want)
		}
	}
	if snap := svc.Snapshot(); snap.Divergences != 0 {
		t.Fatalf("takeover recovery found %d divergences", snap.Divergences)
	}
}

// TestResyncKeepsLinesRecordedDuringIt: a job acknowledged while a snapshot
// resync is on the wire reaches the standby. The snapshot was rendered before
// the job's records were, so they must follow it in the stream rather than be
// dropped with the buffer the snapshot replaced; the job runs a program the
// snapshot does not hold, so its program record must follow it too.
func TestResyncKeepsLinesRecordedDuringIt(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	shipPath := filepath.Join(dir, "shipped.journal")
	standby := tnode(t, net, "standby", nil, func(c *Config) { c.ShipPath = shipPath })
	primary := tnode(t, net, "primary", nil, func(c *Config) {
		c.Standby = "standby"
		c.Service.JournalPath = filepath.Join(dir, "primary.journal")
	})
	ctx := context.Background()
	cores := map[string]string{}
	src := srcOf(t, "ocean")
	for i := 0; i < 2; i++ {
		id := mustSubmit(t, primary, service.Request{Source: src, PerturbSeed: int64(i)})
		cores[id] = waitResult(t, primary.Service(), id).Core()
	}

	// The first flush opens the epoch with a snapshot of the two jobs, and
	// stays on the wire long enough for a third job to be accepted and done.
	net.SetLatency("primary", "standby", 300*time.Millisecond)
	flushed := make(chan error, 1)
	go func() {
		_, err := primary.ShipFlush(ctx)
		flushed <- err
	}()
	time.Sleep(50 * time.Millisecond)
	late := mustSubmit(t, primary, service.Request{Source: srcOf(t, "radiosity")})
	cores[late] = waitResult(t, primary.Service(), late).Core()
	if err := <-flushed; err != nil {
		t.Fatalf("resync flush: %v", err)
	}
	net.SetLatency("primary", "standby", 0)
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("flush after the resync: sent %d, err %v; want the late job's lines", sent, err)
	}
	primary.Kill()
	net.Deregister("primary")
	if err := standby.Close(ctx); err != nil {
		t.Fatal(err)
	}

	svc, err := service.Open(service.Config{JournalPath: shipPath, Workers: 2})
	if err != nil {
		t.Fatalf("Takeover: %v", err)
	}
	defer svc.Close(context.Background())
	for id, want := range cores {
		if got := waitResult(t, svc, id).Core(); got != want {
			t.Fatalf("takeover job %s core %s, want %s", id, got, want)
		}
	}
	if snap := svc.Snapshot(); snap.Divergences != 0 || snap.JournalQuarantined != 0 {
		t.Fatalf("takeover: %d divergences, %d quarantined lines", snap.Divergences, snap.JournalQuarantined)
	}
}

// TestSingleNodeIdentity: a node with no peers and no standby is the bare
// service — identical results, no cluster traffic, no peer-path counters.
func TestSingleNodeIdentity(t *testing.T) {
	src := srcOf(t, "raytrace")
	bare := service.New(service.Config{Workers: 2})
	defer bare.Close(context.Background())
	node, err := Open(Config{Self: "solo", Service: service.Config{Workers: 2}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer node.Close(context.Background())

	for i := 0; i < 4; i++ {
		req := service.Request{Source: src, PerturbSeed: int64(i)}
		a, err := bare.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("bare Do: %v", err)
		}
		b, err := node.Service().Do(context.Background(), req)
		if err != nil {
			t.Fatalf("node Do: %v", err)
		}
		if a.Core() != b.Core() {
			t.Fatalf("variant %d: bare core %s, node core %s", i, a.Core(), b.Core())
		}
		if b.PeerFilled || b.Remote {
			t.Fatalf("single-node result carries cluster markers: %+v", b)
		}
	}
	if st := node.Stats(); st != (Stats{}) {
		t.Fatalf("single-node cluster stats nonzero: %+v", st)
	}
	snap := node.Service().Snapshot()
	if snap.PeerFills != 0 || snap.PeerOffers != 0 || snap.JobsStolen != 0 {
		t.Fatalf("single-node service snapshot has peer activity: %+v", snap)
	}
}
