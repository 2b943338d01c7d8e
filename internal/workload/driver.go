package workload

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/nemesis"
	"repro/internal/service"
)

// Nemesis names the fault schedule applied to the cluster transport while a
// scenario runs. Faults are planned from the dedicated nemesis stream and
// applied at deterministic submission indices; they degrade links (peer
// fills fall back to local recompute) but must never change deterministic
// cores or lose accepted jobs.
type Nemesis string

const (
	// NemesisNone leaves the transport healthy.
	NemesisNone Nemesis = "none"
	// NemesisFlaky drops a seeded fraction of messages on planned links.
	NemesisFlaky Nemesis = "flaky"
	// NemesisSlow adds latency to planned links.
	NemesisSlow Nemesis = "slow"
	// NemesisChurn runs the cluster in dynamic-membership mode and applies a
	// seeded join/drain schedule (nemesis.ClassMembership stream) at
	// deterministic submission indices: nodes join through the bootstrap
	// handshake and drain out gracefully mid-load. Submissions route around
	// departing nodes; cores must stay byte-identical throughout.
	NemesisChurn Nemesis = "churn"
)

// RunConfig parameterizes one scenario run.
type RunConfig struct {
	// Seed roots every stream of the run.
	Seed int64
	// Arrival shapes the timeline.
	Arrival ArrivalConfig
	// Mix shapes the program pool.
	Mix MixSpec
	// Nodes is the cluster size; 1 runs a bare service, >1 a LoopNet
	// cluster with background loops disabled.
	Nodes int
	// Nemesis selects the transport fault schedule (cluster mode only).
	Nemesis Nemesis
}

// Outcome is one scenario's result: a deterministic core (everything above
// the annex line — byte-identical for a given RunConfig) plus a measured
// annex of wall-clock quantities that legitimately vary run to run.
type Outcome struct {
	Shape Shape  `json:"shape"`
	Mix   string `json:"mix"`
	Nodes int    `json:"nodes"`

	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`

	// DistinctPrograms is the pool size actually drawn; CoreFingerprint is
	// an FNV-64a digest over the sorted program→deterministic-core pairs.
	// Two runs of the same config — or the same workload on a different
	// topology — must produce identical fingerprints.
	DistinctPrograms int    `json:"distinct_programs"`
	CoreFingerprint  string `json:"core_fingerprint"`
	// TraceFingerprint digests the arrival timeline (seq/at/client).
	TraceFingerprint string `json:"trace_fingerprint"`

	// ChurnFingerprint digests the executed membership-churn fault timeline
	// (NemesisChurn only). It is part of the deterministic core: the same
	// seed must reproduce the identical fault schedule.
	ChurnFingerprint string `json:"churn_fingerprint,omitempty"`
	// ChurnEvents counts executed churn events (joins + drains).
	ChurnEvents int `json:"churn_events,omitempty"`

	// Cluster quiesce state (cluster mode): after the last submission drains,
	// every surviving node must hold the same view digest — ClusterConverged
	// — and the shared config epoch and ring membership are themselves
	// deterministic outputs of (seed, config).
	ClusterEpoch     int64  `json:"cluster_epoch,omitempty"`
	ClusterRing      string `json:"cluster_ring,omitempty"`
	ClusterConverged bool   `json:"cluster_converged,omitempty"`

	// Measured annex — excluded from determinism comparisons.
	ElapsedMS     int64   `json:"elapsed_ms"`
	ThroughputJPS float64 `json:"throughput_jps"`
	P50US         int64   `json:"p50_us,omitempty"`
	P95US         int64   `json:"p95_us,omitempty"`

	// cores maps program name to its deterministic core string.
	cores map[string]string
}

// isRejection reports whether an error class is an admission-control
// rejection (the 429/503 family) rather than an execution failure.
func isRejection(class string) bool {
	switch class {
	case "queue_full", "overloaded", "circuit_open":
		return true
	}
	return false
}

// TimelineFingerprint digests a timeline to a compact hex string.
func TimelineFingerprint(evs []Arrival) string {
	h := fnv.New64a()
	for _, e := range evs {
		fmt.Fprintf(h, "%d %d %d\n", e.Seq, e.AtUS, e.Client)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// coreFingerprint digests the sorted program→core map.
func coreFingerprint(cores map[string]string) string {
	names := make([]string, 0, len(cores))
	for n := range cores {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, cores[n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// workers and queueDepth configure each node's service; window bounds a run's
// jobs in flight, at most queueDepth so none is ever queue-rejected.
const (
	workers    = 4
	queueDepth = 256
	window     = min(32, queueDepth)
)

func (c *RunConfig) withDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Nemesis == "" {
		c.Nemesis = NemesisNone
	}
}

// Run executes one scenario: synthesize the pool, generate the timeline,
// push it through the target topology under the in-flight window, and fold
// the outcomes. Every accepted job must finish — the returned Outcome
// counts let callers assert Submitted == Completed + Failed + Rejected.
func Run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	cfg.withDefaults()
	rng := NewPartitionedRNG(cfg.Seed)
	mix, err := Synthesize(rng, cfg.Mix)
	if err != nil {
		return nil, err
	}
	evs, err := Timeline(rng, cfg.Arrival)
	if err != nil {
		return nil, err
	}

	out := &Outcome{
		Shape:            cfg.Arrival.Shape,
		Mix:              cfg.Mix.Name,
		Nodes:            cfg.Nodes,
		DistinctPrograms: len(mix.Progs),
		TraceFingerprint: TimelineFingerprint(evs),
		cores:            map[string]string{},
	}

	// Pre-draw every arrival's program from the mix stream so payload
	// choice is sealed before any concurrency starts.
	picks := make([]Program, len(evs))
	for i := range evs {
		picks[i] = mix.Pick(rng.Stream(ClassMix))
	}

	var submit func(ctx context.Context, seq int, req service.Request) (*service.Result, error)
	var shutdown func() error
	var cl *runCluster
	if cfg.Nodes == 1 {
		svc := service.New(service.Config{Workers: workers, QueueDepth: queueDepth})
		submit = func(ctx context.Context, _ int, req service.Request) (*service.Result, error) {
			return svc.Do(ctx, req)
		}
		shutdown = func() error {
			cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return svc.Close(cctx)
		}
	} else {
		var err error
		cl, err = openCluster(cfg, rng)
		if err != nil {
			return nil, err
		}
		submit = cl.submit
		shutdown = cl.close
	}

	type done struct {
		res *service.Result
		err error
		us  int64
	}
	results := make([]done, len(evs))
	var (
		wg     sync.WaitGroup
		sem    = make(chan struct{}, window)
		client = map[int]chan struct{}{} // closed-loop per-client serialization
	)
	if cfg.Arrival.Shape == ShapeClosed {
		for _, e := range evs {
			if _, ok := client[e.Client]; !ok && e.Client >= 0 {
				ch := make(chan struct{}, 1)
				ch <- struct{}{}
				client[e.Client] = ch
			}
		}
	}
	start := time.Now()
	for i := range evs {
		ev, prog := evs[i], picks[i]
		if cl != nil {
			// Membership churn fires at deterministic submission indices,
			// applied in the main loop so every run sees the identical
			// interleaving of churn events and submission launches.
			cl.step(ctx, i)
		}
		var clientCh chan struct{}
		if ch, ok := client[ev.Client]; ok {
			clientCh = ch
			<-ch // wait for this client's previous job
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(seq int, prog Program) {
			defer wg.Done()
			t0 := time.Now()
			res, err := submit(ctx, seq, service.Request{
				Source: prog.Source, Entry: "main", Threads: prog.Threads,
			})
			results[seq] = done{res: res, err: err, us: time.Since(t0).Microseconds()}
			if clientCh != nil {
				clientCh <- struct{}{}
			}
			<-sem
		}(ev.Seq, prog)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if cl != nil {
		// Quiesce before teardown: convergence is only observable while the
		// surviving nodes are still up.
		out.ClusterEpoch, out.ClusterRing, out.ClusterConverged = cl.quiesce(ctx)
	}
	if err := shutdown(); err != nil {
		return nil, err
	}

	// Fold outcomes in seq order: the aggregation is order-insensitive, but
	// a fixed fold order keeps any future extension deterministic for free.
	var lats []int64
	for seq := range results {
		d := results[seq]
		out.Submitted++
		switch {
		case d.err != nil && isRejection(service.Classify(d.err)):
			out.Rejected++
		case d.err != nil:
			out.Failed++
		default:
			out.Completed++
			lats = append(lats, d.us)
			name := picks[seq].Name
			core := d.res.Core()
			if prev, ok := out.cores[name]; ok && prev != core {
				return nil, fmt.Errorf("workload: determinism violation: program %s produced cores %s and %s", name, prev, core)
			}
			out.cores[name] = core
		}
	}
	out.CoreFingerprint = coreFingerprint(out.cores)
	if cl != nil && cl.eng != nil {
		out.ChurnFingerprint = cl.eng.Fingerprint()
		out.ChurnEvents = len(cl.eng.Timeline())
	}
	out.ElapsedMS = elapsed.Milliseconds()
	if s := elapsed.Seconds(); s > 0 {
		out.ThroughputJPS = float64(out.Completed) / s
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out.P50US = lats[len(lats)/2]
		out.P95US = lats[(len(lats)*95)/100]
	}
	return out, nil
}

// runCluster holds the LoopNet topology for one scenario. Under NemesisChurn
// it additionally owns the seeded membership-churn schedule: mu guards the
// node/addr/live sets, which the main submission loop mutates through step()
// while submission goroutines read them to route.
type runCluster struct {
	net *cluster.LoopNet
	cfg RunConfig

	mu     sync.Mutex
	nodes  []*cluster.Node
	addrs  []string
	live   map[string]bool
	nextID int

	eng   *nemesis.Engine
	churn map[int][]nemesis.Event
}

// openNode opens one cluster node with background loops disabled (the
// driver's submissions — and, under churn, step() — are the only traffic).
func (c *runCluster) openNode(self string, seeds []string) (*cluster.Node, error) {
	ccfg := cluster.Config{
		Self:           self,
		Client:         c.net.Client(self),
		ProbeInterval:  -1,
		StealInterval:  -1,
		ShipInterval:   -1,
		GossipInterval: -1,
		RepairInterval: -1,
		ProbeTimeout:   time.Second,
		FillTimeout:    2 * time.Second,
		FailThreshold:  2,
		Service:        service.Config{Workers: workers, QueueDepth: queueDepth},
	}
	if c.cfg.Nemesis == NemesisChurn {
		ccfg.SeedPeers = seeds
	} else {
		ccfg.Peers = c.addrs
	}
	n, err := cluster.Open(ccfg)
	if err != nil {
		return nil, err
	}
	c.net.Register(self, n.Handler())
	return n, nil
}

// openCluster builds an n-node LoopNet cluster and applies the nemesis
// schedule's initial link state. Under NemesisChurn the cluster runs in
// dynamic-membership mode: node-0 bootstraps, the rest join through it, and
// the churn plan (nemesis.ClassMembership stream) is precomputed against the
// arrival count so each event fires at a fixed submission index.
func openCluster(cfg RunConfig, rng *PartitionedRNG) (*runCluster, error) {
	net := cluster.NewLoopNet()
	addrs := make([]string, cfg.Nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d", i)
	}
	cl := &runCluster{net: net, addrs: addrs, cfg: cfg, live: map[string]bool{}, nextID: cfg.Nodes}
	for i, self := range addrs {
		var seeds []string
		if i > 0 {
			seeds = []string{addrs[0]}
		} else {
			seeds = []string{}
		}
		n, err := cl.openNode(self, seeds)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.nodes = append(cl.nodes, n)
		cl.live[self] = true
		if cfg.Nemesis == NemesisChurn && i > 0 {
			jctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := n.Join(jctx)
			cancel()
			if err != nil {
				cl.close()
				return nil, fmt.Errorf("workload: churn bootstrap join %s: %w", self, err)
			}
		}
	}
	if cfg.Nemesis == NemesisChurn {
		cl.eng = nemesis.New(cfg.Seed)
		plan := nemesis.Plan(cfg.Seed, nemesis.PlanConfig{
			Steps:   cfg.Arrival.Jobs,
			Targets: addrs[1:], // node-0 is the routing coordinator; never churned
		}, []nemesis.OpSpec{
			{Class: nemesis.ClassMembership, Op: "drain", Rate: 0.02},
			{Class: nemesis.ClassMembership, Op: "join", Rate: 0.02},
		})
		cl.churn = make(map[int][]nemesis.Event)
		for _, e := range plan {
			cl.churn[e.Step] = append(cl.churn[e.Step], e)
		}
	}
	// Nemesis link state, planned from the dedicated stream: every ordered
	// pair of distinct nodes is independently afflicted with probability
	// 1/2. Faulty links only slow or drop transport messages — the service
	// recomputes locally on peer-fill failure, so cores stay identical.
	r := rng.Stream("nemesis")
	switch cfg.Nemesis {
	case NemesisFlaky:
		for _, from := range addrs {
			for _, to := range addrs {
				if from != to && r.IntN(2) == 0 {
					net.Flake(from, to, 0.5, int64(r.Next()%(1<<31)))
				}
			}
		}
	case NemesisSlow:
		for _, from := range addrs {
			for _, to := range addrs {
				if from != to && r.IntN(2) == 0 {
					net.SetLatency(from, to, time.Duration(1+r.IntN(3))*time.Millisecond)
				}
			}
		}
	}
	return cl, nil
}

// step applies the churn events planned for submission index seq. It runs in
// the main submission loop — never concurrently with itself — so the live
// set evolves identically on every run of the same seed. Events that are not
// applicable in the current state (target already gone, too few survivors)
// are skipped deterministically and never recorded.
func (c *runCluster) step(ctx context.Context, seq int) {
	if c.churn == nil {
		return
	}
	for _, e := range c.churn[seq] {
		switch e.Op {
		case "drain":
			c.applyDrain(ctx, e)
		case "join":
			c.applyJoin(ctx, e)
		}
	}
}

// applyDrain gracefully drains the target node out of the cluster: queued
// work hands off to the surviving owners, displaced keys rebalance, and the
// journal segment transfers — all synchronously, so by the time the next
// submission routes, every surviving view has the target as left.
func (c *runCluster) applyDrain(ctx context.Context, e nemesis.Event) {
	c.mu.Lock()
	liveCount := 0
	for _, ok := range c.live {
		if ok {
			liveCount++
		}
	}
	var target *cluster.Node
	if liveCount > 2 && c.live[e.Target] {
		c.live[e.Target] = false
		for i, a := range c.addrs {
			if a == e.Target {
				target = c.nodes[i]
				break
			}
		}
	}
	c.mu.Unlock()
	if target == nil {
		return
	}
	c.eng.Record(e)
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	// A handoff refusal degrades to a durable local journal; the node is
	// still out of the ring, so routing stays correct either way.
	_ = target.Drain(dctx)
}

// applyJoin admits a brand-new node through the seed bootstrap handshake:
// snapshot resync plus divergence cross-check before ring admission. The new
// node's name is derived from a deterministic counter, so the executed
// timeline is a pure function of the seed.
func (c *runCluster) applyJoin(ctx context.Context, e nemesis.Event) {
	c.mu.Lock()
	self := fmt.Sprintf("node-%d", c.nextID)
	c.nextID++
	seed0 := c.addrs[0]
	c.mu.Unlock()

	n, err := c.openNode(self, []string{seed0})
	if err != nil {
		return
	}
	jctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = n.Join(jctx)
	cancel()
	if err != nil {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.Close(cctx)
		cancel()
		return
	}
	c.mu.Lock()
	c.nodes = append(c.nodes, n)
	c.addrs = append(c.addrs, self)
	c.live[self] = true
	c.mu.Unlock()
	c.eng.Record(nemesis.Event{Step: e.Step, Class: e.Class, Op: e.Op, Target: self})
}

// remoteEveryN routes every Nth cluster submission through a non-owner
// coordinator, exercising the peer-fill path.
const remoteEveryN = 4

// route picks the node a submission goes to: the key's owner normally, a
// deterministic non-owner coordinator every remoteEveryN submissions, always
// constrained to live nodes. skip names a node to avoid (a just-failed
// draining target).
func (c *runCluster) route(seq int, key, skip string) *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner := c.nodes[0].Owner(key)
	idx := 0
	for i, a := range c.addrs {
		if a == owner && c.live[a] && a != skip {
			idx = i
			break
		}
	}
	if seq%remoteEveryN == 0 {
		idx = (idx + 1) % len(c.nodes)
	}
	// Walk forward to the first live candidate; node-0 is always live, so
	// the walk terminates.
	for tries := 0; tries < len(c.nodes); tries++ {
		a := c.addrs[idx]
		if c.live[a] && a != skip {
			return c.nodes[idx]
		}
		idx = (idx + 1) % len(c.nodes)
	}
	return c.nodes[0]
}

// submit routes one request to a live node. A submission that races a drain
// (routed before the target flipped, executed after) is rejected with
// ErrDraining; it retries on another live node so accepted load is never
// lost to churn timing.
func (c *runCluster) submit(ctx context.Context, seq int, req service.Request) (*service.Result, error) {
	c.mu.Lock()
	node0 := c.nodes[0]
	c.mu.Unlock()
	key, err := node0.Service().KeyFor(req)
	if err != nil {
		return nil, err
	}
	skip := ""
	for attempt := 0; ; attempt++ {
		n := c.route(seq, key, skip)
		res, err := n.Service().Do(ctx, req)
		if err != nil && attempt < 4 {
			switch service.Classify(err) {
			case "draining", "closed":
				skip = n.Name()
				continue
			}
		}
		return res, err
	}
}

// quiesce checks post-run convergence across the surviving nodes: all views
// at the same digest (running catch-up gossip rounds if any straggler
// disagrees), reporting the shared config epoch, the sorted ring membership,
// and whether agreement was reached.
func (c *runCluster) quiesce(ctx context.Context) (int64, string, bool) {
	c.mu.Lock()
	var nodes []*cluster.Node
	for i, a := range c.addrs {
		if c.live[a] {
			nodes = append(nodes, c.nodes[i])
		}
	}
	c.mu.Unlock()
	if len(nodes) == 0 {
		return 0, "", false
	}
	agreed := func() bool {
		d0 := nodes[0].View().Digest()
		for _, n := range nodes[1:] {
			if n.View().Digest() != d0 {
				return false
			}
		}
		return true
	}
	for round := 0; round < 4 && !agreed(); round++ {
		for _, n := range nodes {
			n.GossipOnce(ctx)
		}
	}
	ring := strings.Join(nodes[0].View().RingMembers(), ",")
	return nodes[0].Epoch(), ring, agreed()
}

func (c *runCluster) close() error {
	c.mu.Lock()
	nodes := append([]*cluster.Node(nil), c.nodes...)
	c.mu.Unlock()
	var first error
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := n.Close(ctx)
		cancel()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
