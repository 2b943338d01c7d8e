package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/service"
)

// readyzCode probes a node's /readyz through its handler.
func readyzCode(n *Node) int {
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	return rec.Code
}

// dnode opens a dynamic-membership node with every background loop disabled;
// tests drive Join/Drain/GossipOnce/RepairOnce directly so each schedule is
// deterministic. An empty (non-nil) seeds slice bootstraps; a populated one
// opens a joiner that must Join before ring admission.
func dnode(t *testing.T, net *LoopNet, self string, seeds []string, mut func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Self:           self,
		SeedPeers:      seeds,
		Client:         net.Client(self),
		ProbeInterval:  -1,
		StealInterval:  -1,
		ShipInterval:   -1,
		GossipInterval: -1,
		RepairInterval: -1,
		ProbeTimeout:   time.Second,
		FillTimeout:    time.Second,
		FailThreshold:  2,
		Service:        service.Config{Workers: 2},
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

// reqsOwnedBy scans perturbation seeds for count distinct requests whose
// result keys the named member owns under n's current ring.
func reqsOwnedBy(t *testing.T, n *Node, src, owner string, count int) ([]service.Request, []string) {
	t.Helper()
	var reqs []service.Request
	var keys []string
	for seed := int64(0); seed < 256 && len(reqs) < count; seed++ {
		req := service.Request{Source: src, PerturbSeed: seed}
		key, err := n.Service().KeyFor(req)
		if err != nil {
			t.Fatalf("KeyFor: %v", err)
		}
		if n.Owner(key) == owner {
			reqs = append(reqs, req)
			keys = append(keys, key)
		}
	}
	if len(reqs) < count {
		t.Fatalf("found only %d/%d requests owned by %s in 256 seeds", len(reqs), count, owner)
	}
	return reqs, keys
}

// TestJoinBootstrap covers the newcomer path: a joiner is off the ring until
// its bootstrap handshake — snapshot resync plus divergence cross-check —
// verifies, a corrupted join reply is rejected outright, and a successful
// join converges both views at the same epoch and ring.
func TestJoinBootstrap(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	a := dnode(t, net, "node-a", []string{}, func(c *Config) {
		c.Service.JournalPath = filepath.Join(dir, "a.journal")
	})
	defer a.Close(context.Background())
	ctx := context.Background()

	// Warm the bootstrap node so the join snapshot has records to cross-check.
	src := srcOf(t, "ocean")
	for seed := int64(0); seed < 2; seed++ {
		waitResult(t, a.Service(), mustSubmit(t, a, service.Request{Source: src, PerturbSeed: seed}))
	}

	b := dnode(t, net, "node-b", []string{"node-a"}, nil)
	defer b.Close(context.Background())
	if st := b.View().Members["node-b"].State; st != StateJoining {
		t.Fatalf("fresh joiner state = %s, want joining", st)
	}
	if ring := b.View().RingMembers(); len(ring) != 0 {
		t.Fatalf("joiner on the ring before admission: %v", ring)
	}
	if code := readyzCode(b); code != 503 {
		t.Fatalf("joiner /readyz = %d before admission, want 503", code)
	}

	// A corrupted join reply must be rejected: the newcomer stays out of the
	// ring rather than bootstrapping from damaged bytes.
	net.CorruptResponses("node-a", "node-b", 1, 99)
	if err := b.Join(ctx); err == nil {
		t.Fatal("Join succeeded through a corrupting link")
	}
	if st := b.View().Members["node-b"].State; st != StateJoining {
		t.Fatalf("failed join left state %s, want joining", st)
	}
	if b.Stats().CorruptPayloads == 0 {
		t.Fatal("corrupted join reply not counted")
	}
	net.CorruptResponses("node-a", "node-b", 0, 99)

	if err := b.Join(ctx); err != nil {
		t.Fatalf("Join after heal: %v", err)
	}
	// The seed's log opens with its id reservation; the snapshot the joiner
	// just checked is the job table without it.
	if !bytes.Contains(mustRead(t, filepath.Join(dir, "a.journal")), reservedType) {
		t.Fatal("the seed's journal holds no reservation")
	}
	if err := b.Join(ctx); err != nil {
		t.Fatalf("Join is not idempotent once admitted: %v", err)
	}
	if a.View().Digest() != b.View().Digest() {
		t.Fatalf("views diverge after join: %s vs %s", a.View().Digest(), b.View().Digest())
	}
	if a.Epoch() != b.Epoch() || a.Epoch() != 2 {
		t.Fatalf("epochs = %d/%d, want 2/2", a.Epoch(), b.Epoch())
	}
	for _, n := range []*Node{a, b} {
		ring := n.View().RingMembers()
		if len(ring) != 2 || ring[0] != "node-a" || ring[1] != "node-b" {
			t.Fatalf("%s ring = %v, want [node-a node-b]", n.Name(), ring)
		}
	}
	// The seed served two join requests: the one whose reply the wire
	// corrupted (damage happens after serving) and the clean retry.
	if b.Stats().Joins != 1 || a.Stats().JoinsServed != 2 {
		t.Fatalf("join counters: joiner %d, seed served %d", b.Stats().Joins, a.Stats().JoinsServed)
	}
	if code := readyzCode(b); code != 200 {
		t.Fatalf("admitted joiner /readyz = %d, want 200", code)
	}

	// The admitted member now owns ring ranges: some key routes to node-b on
	// both nodes' rings.
	if _, keys := reqsOwnedBy(t, a, src, "node-b", 1); b.Owner(keys[0]) != "node-b" {
		t.Fatal("rings disagree on ownership after join")
	}
}

// slowSrc pins a worker for tens of milliseconds (1M-iteration spin), long
// enough for a drain to catch a queue backlog behind it.
const slowSrc = `
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

// TestDrainMidLoad is the graceful-leave acceptance test: a node draining
// under load finishes or hands off every accepted job (zero lost), transfers
// ring ownership of its keys, and leaves every survivor converged on a view
// without it.
func TestDrainMidLoad(t *testing.T) {
	net := NewLoopNet()
	a := dnode(t, net, "node-a", []string{}, nil)
	b := dnode(t, net, "node-b", []string{"node-a"}, nil)
	c := dnode(t, net, "node-c", []string{"node-a"}, func(cfg *Config) {
		cfg.Service.Workers = 1 // a single pinned worker builds a real backlog
	})
	defer a.Close(context.Background())
	defer b.Close(context.Background())
	ctx := context.Background()
	if err := b.Join(ctx); err != nil {
		t.Fatalf("b join: %v", err)
	}
	if err := c.Join(ctx); err != nil {
		t.Fatalf("c join: %v", err)
	}

	// Pin c's worker, then queue three jobs whose keys c owns.
	plugID := mustSubmit(t, c, service.Request{Source: slowSrc, Threads: 1})
	reqs, keys := reqsOwnedBy(t, c, srcOf(t, "volrend"), "node-c", 3)
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = mustSubmit(t, c, req)
	}
	results := make([]*service.Result, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			results[i] = waitResult(t, c.Service(), id)
		}(i, id)
	}

	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	waitResult(t, c.Service(), plugID)
	for i, res := range results {
		if res == nil {
			t.Fatalf("job %d lost in drain", i)
		}
	}

	// Every survivor agrees c has left, at the same epoch.
	for _, n := range []*Node{a, b} {
		if st := n.View().Members["node-c"].State; st != StateLeft {
			t.Fatalf("%s sees node-c as %s, want left", n.Name(), st)
		}
	}
	if a.View().Digest() != b.View().Digest() || a.Epoch() != b.Epoch() {
		t.Fatalf("survivors diverge: %s@%d vs %s@%d", a.View().Digest(), a.Epoch(), b.View().Digest(), b.Epoch())
	}
	cst := c.Stats()
	if cst.Drains != 1 {
		t.Fatalf("drain counter = %d, want 1", cst.Drains)
	}
	if cst.HandoffJobsSent == 0 {
		t.Fatal("no queued jobs handed off — the drain never saw the backlog")
	}
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if !draining {
		t.Fatal("drained node is not in draining state")
	}

	// The drained node's keys are reachable from their new owners: ownership
	// moved off node-c, and each new owner serves the entry (installed by the
	// handoff execution or the rebalance push) with the identical core.
	nodes := map[string]*Node{"node-a": a, "node-b": b}
	for i, key := range keys {
		newOwner := a.Owner(key)
		if newOwner == "node-c" || newOwner == "" {
			t.Fatalf("key %d still owned by %q after drain", i, newOwner)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if res, ok := nodes[newOwner].Service().ResultByKey(key); ok {
				if coreOf(res) != coreOf(results[i]) {
					t.Fatalf("key %d: new owner core %s, drained waiter saw %s", i, coreOf(res), coreOf(results[i]))
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d never reachable from new owner %s", i, newOwner)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestDrainRefusedWhenJournalAgreesWithWrongCache is the cluster-level twin of
// the service's cache-blind snapshot check. node-b's journal and cache agree on
// a wrong schedule hash (it took an unchecked peer fill of a planted entry),
// and by the time it drains the successor's own cache holds that same entry —
// so a receiver-side check that asked the cache would compare the wrong hash
// with itself. The successor recomputes instead: 409, nothing accepted, and
// the drainer's journal file stays behind, still durable.
func TestDrainRefusedWhenJournalAgreesWithWrongCache(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	a := dnode(t, net, "node-a", []string{}, func(c *Config) {
		c.Service.JournalPath = filepath.Join(dir, "a.journal")
	})
	bJournal := filepath.Join(dir, "b.journal")
	b := dnode(t, net, "node-b", []string{"node-a"}, func(c *Config) {
		c.Service.JournalPath = bJournal
	})
	defer a.Close(context.Background())
	ctx := context.Background()
	if err := b.Join(ctx); err != nil {
		t.Fatalf("join: %v", err)
	}

	// Plant, under a key node-a owns, another request's self-consistent entry.
	reqs, keys := reqsOwnedBy(t, a, srcOf(t, "raytrace"), "node-a", 1)
	otherReq := service.Request{Source: srcOf(t, "water-nsq"), PerturbSeed: 7}
	waitResult(t, a.Service(), mustSubmit(t, a, otherReq))
	otherKey, err := a.Service().KeyFor(otherReq)
	if err != nil {
		t.Fatal(err)
	}
	planted, ok := a.Service().ResultByKey(otherKey)
	if !ok {
		t.Fatal("staging entry missing")
	}
	if err := a.Service().OfferResult(keys[0], planted, &reqs[0]); err != nil {
		t.Fatalf("planting wrong entry: %v", err)
	}

	// node-b misses, fills from the owner (no sampled cross-check configured)
	// and journals the wrong hash as its completion.
	got := waitResult(t, b.Service(), mustSubmit(t, b, reqs[0]))
	if !got.PeerFilled || got.ScheduleHash != planted.ScheduleHash {
		t.Fatalf("staging broke: peer_filled=%v hash=%s, want a fill of %s", got.PeerFilled, got.ScheduleHash, planted.ScheduleHash)
	}

	err = b.Drain(ctx)
	if !errors.Is(err, diag.ErrDivergence) {
		t.Fatalf("Drain = %v, want the successor's cross-check to refuse the segment (ErrDivergence)", err)
	}
	if st := a.Stats(); st.JournalHandoffsRecv != 0 {
		t.Fatalf("successor accepted %d journal segments whose history does not reproduce", st.JournalHandoffsRecv)
	}
	if st := b.Stats(); st.JournalHandoffs != 0 {
		t.Fatalf("drainer counts %d journal handoffs after a refusal", st.JournalHandoffs)
	}
	if snap := a.Service().Snapshot(); snap.Divergences != 1 {
		t.Fatalf("successor divergences = %d, want 1", snap.Divergences)
	}
	if fi, err := os.Stat(bJournal); err != nil || fi.Size() == 0 {
		t.Fatalf("drainer's journal did not stay behind: %v", err)
	}
	if sides, _ := filepath.Glob(filepath.Join(dir, "a.journal.handoff-*")); len(sides) != 0 {
		t.Fatalf("successor persisted a refused segment: %v", sides)
	}
}

// TestAntiEntropyRepair covers both repair arms: a missing entry on the
// owner is pulled back from a peer holding it, and a divergent peer copy
// loses to deterministic recompute — flagged, counted, and quarantined.
func TestAntiEntropyRepair(t *testing.T) {
	net := NewLoopNet()
	a := dnode(t, net, "node-a", []string{}, nil)
	b := dnode(t, net, "node-b", []string{"node-a"}, nil)
	defer a.Close(context.Background())
	defer b.Close(context.Background())
	ctx := context.Background()
	if err := b.Join(ctx); err != nil {
		t.Fatalf("join: %v", err)
	}
	src := srcOf(t, "raytrace")

	// --- Missing entry: b computes a key a owns while a is unreachable, so
	// the offer never lands. Repair pulls it back to the owner. ---
	reqs, keys := reqsOwnedBy(t, a, src, "node-a", 2)
	net.Partition("node-a", "node-b")
	missRes := waitResult(t, b.Service(), mustSubmit(t, b, reqs[0]))
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().OfferFails == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned offer never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	net.Heal("node-a", "node-b")
	if _, ok := a.Service().ResultByKey(keys[0]); ok {
		t.Fatal("owner already has the entry; the repair pull would prove nothing")
	}
	if n := a.RepairOnce(ctx); n == 0 {
		t.Fatal("repair round reconciled nothing")
	}
	pulled, ok := a.Service().ResultByKey(keys[0])
	if !ok {
		t.Fatal("repair did not pull the missing entry to its owner")
	}
	if coreOf(pulled) != coreOf(missRes) {
		t.Fatalf("pulled core %s, want %s", coreOf(pulled), coreOf(missRes))
	}
	if st := a.Stats(); st.RepairPulls != 1 || st.RepairRounds == 0 {
		t.Fatalf("repair stats after pull: %+v", st)
	}

	// --- Divergence: plant an entry on b under a key a owns whose schedule
	// is internally consistent but belongs to a different request. Recompute
	// arbitrates for a's copy; the peer is flagged and quarantined. ---
	ownRes := waitResult(t, a.Service(), mustSubmit(t, a, reqs[1]))
	otherReq := service.Request{Source: srcOf(t, "water-nsq"), PerturbSeed: 7}
	otherRes := waitResult(t, b.Service(), mustSubmit(t, b, otherReq))
	if otherRes.ScheduleHash == ownRes.ScheduleHash {
		t.Fatal("test staging broke: distinct programs share a schedule hash")
	}
	otherKey, err := b.Service().KeyFor(otherReq)
	if err != nil {
		t.Fatal(err)
	}
	planted, ok := b.Service().ResultByKey(otherKey)
	if !ok {
		t.Fatal("staging entry missing")
	}
	if err := b.Service().OfferResult(keys[1], planted, nil); err != nil {
		t.Fatalf("planting divergent entry: %v", err)
	}
	if a.RepairOnce(ctx) == 0 {
		t.Fatal("divergence round reconciled nothing")
	}
	st := a.Stats()
	if st.RepairDivergences != 1 {
		t.Fatalf("RepairDivergences = %d, want 1 (stats %+v)", st.RepairDivergences, st)
	}
	if st.PeerQuarantines != 1 {
		t.Fatalf("divergent peer not quarantined: %+v", st)
	}
	if ps := a.Peers()["node-b"]; !ps.Quarantined {
		t.Fatalf("peer status not quarantined: %+v", ps)
	}
	// The owner's copy stands untouched — recompute reproduced it.
	kept, ok := a.Service().ResultByKey(keys[1])
	if !ok || coreOf(kept) != coreOf(ownRes) {
		t.Fatalf("owner's verified copy disturbed: ok=%v", ok)
	}
}
