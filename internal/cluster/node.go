package cluster

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detrand"
	"repro/internal/diag"
	"repro/internal/service"
	"repro/internal/vfs"
)

// Config wires one cluster node.
type Config struct {
	// Self is this node's advertised address (the name peers reach it by).
	Self string
	// Peers is the static member list, Self included or not — Self is
	// filtered out. An empty list (after filtering) is single-node mode: no
	// hooks are installed and the node is bitwise-identical to the bare
	// service. Mutually exclusive with SeedPeers.
	Peers []string
	// SeedPeers switches the node to dynamic membership: instead of a fixed
	// member list, the cluster's shape is a versioned view spread by gossip.
	// A non-nil (even empty) SeedPeers selects dynamic mode. With seeds the
	// node starts in StateJoining and must Join through one of them before
	// the ring admits it; with an empty list it bootstraps as the active
	// cluster-of-one that others join.
	SeedPeers []string
	// Standby, when non-empty, is the address journal records are shipped to
	// for warm takeover.
	Standby string
	// Service is the inner engine's configuration. Its Fill, Offer and
	// ShipRecord hooks must be nil; the node owns them.
	Service service.Config
	// Client is the transport to peers; nil means a default *http.Client.
	Client Doer

	// VirtualShards is the virtual points per node on the hash ring
	// (default 64).
	VirtualShards int
	// ProbeInterval is the health-probe period (default 500ms); <0 disables
	// the background prober (tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 250ms).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe failures that mark a peer down
	// (default 3).
	FailThreshold int

	// FillTimeout bounds one peer cache fill end to end (default 300ms).
	FillTimeout time.Duration
	// HedgeAfter fires the single hedged retry if the first fill attempt has
	// not answered by then (default FillTimeout/3).
	HedgeAfter time.Duration

	// StealInterval is the idle work-stealing poll period (default 250ms);
	// <0 disables the background stealer (tests drive StealOnce directly).
	StealInterval time.Duration
	// StealBatch is the maximum jobs borrowed per steal (default 2).
	StealBatch int

	// ShipInterval is the journal-shipping flush period (default 100ms);
	// <0 disables the background flusher (tests drive ShipFlush directly).
	ShipInterval time.Duration
	// ShipPath, when non-empty, makes this node a standby target: shipped
	// records are persisted there, and service.Open on the file takes over.
	ShipPath string

	// GossipInterval is the membership-dissemination period in dynamic mode
	// (default 200ms); <0 disables the background gossiper (tests drive
	// GossipOnce directly).
	GossipInterval time.Duration

	// RepairInterval is the anti-entropy period (default 2s); <0 disables
	// the background repair loop (tests drive RepairOnce directly).
	RepairInterval time.Duration
}

// validate rejects contradictory cluster configurations with a typed
// *diag.MisuseError (Kind diag.ErrBadConfig), mirroring the service's own
// config validation. Open calls it.
func (c *Config) validate() error {
	bad := func(detail string) error {
		return &diag.MisuseError{Op: "cluster.Open", ThreadID: -1, Kind: diag.ErrBadConfig, Detail: detail}
	}
	if len(c.Peers) > 0 && c.SeedPeers != nil {
		return bad("Peers and SeedPeers are mutually exclusive: a node is either statically configured or gossip-joined, not both")
	}
	if c.Self == "" && (len(c.Peers) > 0 || c.SeedPeers != nil) {
		return bad("clustered node needs a Self address")
	}
	if c.Service.Fill != nil || c.Service.Offer != nil || c.Service.ShipRecord != nil {
		return bad("Service.Fill/Offer/ShipRecord must be nil: the cluster node owns the service hooks")
	}
	return nil
}

func (c *Config) withDefaults() {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Service.FS == nil {
		// The node's own durable files (the standby's shipped journal, the
		// journal-handoff sidecar) go through the service's filesystem seam.
		c.Service.FS = vfs.OS{}
	}
	if c.VirtualShards <= 0 {
		c.VirtualShards = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 300 * time.Millisecond
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = c.FillTimeout / 3
	}
	if c.StealInterval == 0 {
		c.StealInterval = 250 * time.Millisecond
	}
	if c.StealBatch <= 0 {
		c.StealBatch = 2
	}
	if c.ShipInterval == 0 {
		c.ShipInterval = 100 * time.Millisecond
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 200 * time.Millisecond
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 2 * time.Second
	}
}

// Node is one member of a detserve shard group: the transport-facing wrapper
// around a service.Service. All cluster behaviour lives here; the inner
// service stays transport-agnostic and reaches the cluster only through the
// three Config hooks the node installs (fill, offer, ship).
type Node struct {
	cfg     Config
	svc     *service.Service
	members *membership
	dynamic bool
	shipper *shipper
	standby *standbyStore
	mux     *http.ServeMux
	ctr     statsOf[atomic.Int64]

	// ringMu guards the mutable consistent-hash ring, rebuilt whenever the
	// membership view's config epoch advances. ring is nil while no member
	// is active (a lone joiner before admission).
	ringMu    sync.RWMutex
	ring      *ring
	ringEpoch int64
	ringBuilt bool

	// moveMu guards pendingMoves: the deterministic key-movement diff from
	// the last ring rebuild — keys this node owned under the old ring whose
	// ownership moved, mapped to their new owner. RebalanceOnce drains it.
	moveMu       sync.Mutex
	pendingMoves map[string]string

	// gmu guards the seeded gossip peer-selection stream and the repair
	// round-robin cursor.
	gmu       sync.Mutex
	grand     *detrand.Rand
	repairIdx int

	stop  chan struct{}
	loops sync.WaitGroup // the background loops Open starts

	// mu guards the lifecycle flags. tasks counts the goroutines the node
	// starts on demand (offers, handed-off jobs): spawn adds to it only under
	// mu and only until Close or Kill sets quiet and then waits, so every
	// Add happens before that Wait.
	mu       sync.Mutex
	closed   bool
	draining bool
	quiet    bool
	tasks    sync.WaitGroup
}

// Open builds and starts a node. With no peers and no standby the inner
// service is opened with untouched hooks — single-node mode really is the
// bare service. A non-nil SeedPeers selects dynamic membership instead: the
// node is clustered from birth (even alone) so that it can be joined, and
// newcomers call Join after Open to bootstrap through a seed.
func Open(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.withDefaults()
	n := &Node{cfg: cfg, stop: make(chan struct{}), pendingMoves: make(map[string]string)}

	clustered := false
	if cfg.SeedPeers != nil {
		n.dynamic = true
		clustered = true
		seeds := dedupePeers(cfg.Self, cfg.SeedPeers)
		n.cfg.SeedPeers = seeds
		n.members = newDynamicMembership(cfg.Self, len(seeds) == 0, cfg.Client, cfg.ProbeTimeout, cfg.FailThreshold)
	} else {
		members := dedupePeers(cfg.Self, cfg.Peers)
		clustered = len(members) > 0
		if clustered {
			n.members = newMembership(cfg.Self, members, cfg.Client, cfg.ProbeTimeout, cfg.FailThreshold)
		}
	}
	if clustered {
		n.grand = detrand.New(gossipSeed, gossipStream(cfg.Self))
		cfg.Service.Fill = n.fill
		cfg.Service.Offer = n.offer
	}
	if cfg.Standby != "" {
		n.shipper = newShipper(n, cfg.Standby)
		cfg.Service.ShipRecord = n.shipper.record
	}
	if cfg.ShipPath != "" {
		st, err := openStandbyStore(cfg.Service.FS, cfg.ShipPath)
		if err != nil {
			return nil, err
		}
		n.standby = st
	}

	svc, err := service.Open(cfg.Service)
	if err != nil {
		return nil, err
	}
	n.svc = svc
	n.syncRing()
	n.buildMux()

	if clustered && cfg.ProbeInterval > 0 {
		n.loop(cfg.ProbeInterval, func(ctx context.Context) { n.members.probeOnce(ctx) })
	}
	if clustered && cfg.StealInterval > 0 {
		n.loop(cfg.StealInterval, func(ctx context.Context) { n.StealOnce(ctx) })
	}
	if n.shipper != nil && cfg.ShipInterval > 0 {
		n.loop(cfg.ShipInterval, func(ctx context.Context) { n.ShipFlush(ctx) })
	}
	if n.dynamic && cfg.GossipInterval > 0 {
		n.loop(cfg.GossipInterval, func(ctx context.Context) { n.GossipOnce(ctx) })
	}
	if clustered && cfg.RepairInterval > 0 {
		n.loop(cfg.RepairInterval, func(ctx context.Context) {
			n.RebalanceOnce(ctx)
			n.RepairOnce(ctx)
		})
	}
	return n, nil
}

// dedupePeers hardens a configured peer list: empty names and repeats are
// dropped, and self is removed if listed (a node never peers with itself).
func dedupePeers(self string, peers []string) []string {
	seen := map[string]bool{self: true, "": true}
	var out []string
	for _, p := range peers {
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// gossipStream derives a node's partitioned RNG stream id from its name, so
// every node draws gossip targets from its own deterministic stream of the
// shared seed.
func gossipStream(self string) int {
	h := fnv.New32a()
	io.WriteString(h, self)
	return int(h.Sum32() % 4096)
}

// loop runs fn every interval until the node stops.
func (n *Node) loop(interval time.Duration, fn func(ctx context.Context)) {
	n.loops.Add(1)
	go func() {
		defer n.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				fn(context.Background())
			}
		}
	}()
}

// syncRing rebuilds the consistent-hash ring if the membership view's config
// epoch advanced since the last build, and computes the deterministic
// key-movement diff: every cached key this node owned under the old ring but
// not the new one is queued (key → new owner) for RebalanceOnce to push.
// The diff is pure — two nodes with the same view, ring parameters and cache
// contents compute the identical move set.
func (n *Node) syncRing() {
	if n.members == nil {
		return
	}
	names := n.members.ringMembers()
	epoch := n.members.epoch()

	n.ringMu.Lock()
	if n.ringBuilt && epoch == n.ringEpoch {
		n.ringMu.Unlock()
		return
	}
	old := n.ring
	var nr *ring
	if len(names) > 0 {
		nr = newRing(names, n.cfg.VirtualShards)
	}
	n.ring = nr
	n.ringEpoch = epoch
	n.ringBuilt = true
	n.ringMu.Unlock()
	n.ctr.RingRebuilds.Add(1)

	if old == nil || nr == nil || n.svc == nil {
		return
	}
	for _, ck := range n.svc.CacheScan() {
		if old.owner(ck.Key) == n.cfg.Self {
			if to := nr.owner(ck.Key); to != n.cfg.Self {
				n.moveMu.Lock()
				n.pendingMoves[ck.Key] = to
				n.moveMu.Unlock()
			}
		}
	}
}

// ownerOf resolves key's current ring owner. ok is false when no ring exists
// (single-node, or a joiner before admission) — callers fall back to local.
func (n *Node) ownerOf(key string) (owner string, ok bool) {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	if n.ring == nil {
		return n.cfg.Self, false
	}
	return n.ring.owner(key), true
}

// livePeers is the current ring's other members that this node's probes
// find alive, sorted.
func (n *Node) livePeers() []string {
	var out []string
	for _, name := range n.ringNodeList() {
		if name != n.cfg.Self && n.members.alive(name) {
			out = append(out, name)
		}
	}
	return out
}

// ringNodeList returns the current ring's sorted member names (nil when no
// ring exists).
func (n *Node) ringNodeList() []string {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	if n.ring == nil {
		return nil
	}
	return n.ring.nodes()
}

// Service exposes the inner engine (submissions go straight to it — the node
// adds no layer on the client path).
func (n *Node) Service() *service.Service { return n.svc }

// Handler returns the node's full HTTP surface: health and readiness probes,
// the /internal/v1 peer protocol, and the /v1/cluster membership operations.
// The caller mounts it (and any public job API) on whatever listener it owns.
func (n *Node) Handler() http.Handler { return n.mux }

// ProbeOnce runs one health-probe round synchronously (test entry point).
func (n *Node) ProbeOnce(ctx context.Context) {
	if n.members != nil {
		n.members.probeOnce(ctx)
	}
}

// Peers reports per-peer liveness and membership state.
func (n *Node) Peers() map[string]PeerStatus {
	if n.members == nil {
		return nil
	}
	return n.members.snapshot()
}

// Name reports the node's own cluster address ("" in single-node mode).
func (n *Node) Name() string { return n.cfg.Self }

// Owner reports which member owns key — exported for smoke tooling.
func (n *Node) Owner(key string) string {
	owner, _ := n.ownerOf(key)
	return owner
}

// Epoch reports the membership view's config epoch (0 for single-node mode).
func (n *Node) Epoch() int64 {
	if n.members == nil {
		return 0
	}
	return n.members.epoch()
}

// View returns a deep copy of the membership view (zero View for
// single-node mode).
func (n *Node) View() View {
	if n.members == nil {
		return View{}
	}
	return n.members.viewClone()
}

// Close stops the background loops, lets the inner service drain its queue
// (its workers may still offer what they compute), waits for every goroutine
// the node started, flushes any unshipped journal records, and closes.
func (n *Node) Close(ctx context.Context) error {
	if !n.shut() {
		return nil
	}
	n.loops.Wait()
	err := n.svc.Close(ctx)
	n.quiesce()
	if n.shipper != nil {
		n.ShipFlush(ctx) // last records (final finishes) ship after drain
	}
	if n.standby != nil {
		if cerr := n.standby.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Kill simulates a crash: background loops stop, nothing flushes, the inner
// service dies mid-flight. It too returns only after every goroutine the
// node started has.
func (n *Node) Kill() {
	if !n.shut() {
		return
	}
	n.svc.Kill()
	n.loops.Wait()
	n.quiesce()
	if n.standby != nil {
		n.standby.close()
	}
}

// shut marks the node closed and stops its loops; false if it already was.
func (n *Node) shut() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.closed = true
	close(n.stop)
	return true
}

// leaving reports whether the node is draining or closed.
func (n *Node) leaving() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining || n.closed
}

// spawn runs fn on a goroutine Close and Kill wait for. It reports false,
// and runs nothing, once they have stopped taking tasks.
func (n *Node) spawn(fn func()) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.quiet {
		return false
	}
	n.tasks.Add(1)
	go func() {
		defer n.tasks.Done()
		fn()
	}()
	return true
}

// quiesce stops spawn and waits for the tasks it started.
func (n *Node) quiesce() {
	n.mu.Lock()
	n.quiet = true
	n.mu.Unlock()
	n.tasks.Wait()
}

// buildMux assembles the HTTP surface: the operator endpoints, then every
// peer route this node serves (routes.go).
func (n *Node) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /readyz", n.handleReadyz)
	mux.HandleFunc("POST /v1/cluster/drain", n.handleDrainRequest)
	mux.HandleFunc("GET /v1/cluster/stats", n.handleClusterStats)
	for _, r := range routes {
		r.register(n, mux)
	}
	n.mux = mux
}

// clusterStatus is the GET /v1/cluster/stats body: counters plus the
// membership view and per-peer liveness — the operator's one-call picture of
// the cluster as this node sees it.
type clusterStatus struct {
	Node  string                `json:"node"`
	Stats Stats                 `json:"stats"`
	View  View                  `json:"view,omitempty"`
	Peers map[string]PeerStatus `json:"peers,omitempty"`
	Ring  []string              `json:"ring,omitempty"`
}

// handleClusterStats reports the node's cluster-layer state.
func (n *Node) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	st := clusterStatus{Node: n.cfg.Self, Stats: n.Stats(), Peers: n.Peers(), Ring: n.ringNodeList()}
	if n.members != nil {
		st.View = n.members.viewClone()
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz is liveness: 200 whenever the process can answer, with the
// queue depth peers key work-stealing on. It stays 200 while unready —
// liveness and readiness are deliberately different questions.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := healthReport{
		Status:     "ok",
		Node:       n.cfg.Self,
		QueueDepth: n.svc.QueueDepth(),
		Ready:      n.svc.Ready() == nil,
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleReadyz is readiness: 200 only when the inner service can do real
// work (journal writable, breaker not open, not draining) and, in dynamic
// mode, the node has been admitted to the ring — a joiner can compute, but
// routing traffic at it before admission hides it from the ownership map.
// Unreadiness is 503 with the failing gate named, so load balancers drain
// the node while operators read why.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if n.members != nil && n.members.selfState() == StateJoining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": "joining: not yet admitted to the ring"})
		return
	}
	if err := n.svc.Ready(); err != nil {
		if ra := service.RetryAfter(err); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// writeJSON answers an operator endpoint.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
