package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bin"
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
	// records are persisted there, ready for Takeover.
	ShipPath string

	// GossipInterval is the membership-dissemination period in dynamic mode
	// (default 200ms); <0 disables the background gossiper (tests drive
	// GossipOnce directly).
	GossipInterval time.Duration

	// RepairInterval is the anti-entropy period (default 2s); <0 disables
	// the background repair loop (tests drive RepairOnce directly).
	RepairInterval time.Duration
}

// Validate rejects contradictory cluster configurations with a typed
// *diag.MisuseError (Kind diag.ErrBadConfig), mirroring the service's own
// config validation. Open calls it; the root facade exports it so embedders
// can validate before paying for a failed Open.
func (c *Config) Validate() error {
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

	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	draining bool
}

// Open builds and starts a node. With no peers and no standby the inner
// service is opened with untouched hooks — single-node mode really is the
// bare service. A non-nil SeedPeers selects dynamic membership instead: the
// node is clustered from birth (even alone) so that it can be joined, and
// newcomers call Join after Open to bootstrap through a seed.
func Open(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
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
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
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

// ViewDigest reports the membership view's convergence digest ("" for
// single-node mode). Two nodes agree on the cluster's shape exactly when
// their digests match.
func (n *Node) ViewDigest() string {
	if n.members == nil {
		return ""
	}
	return n.members.digest()
}

// View returns a deep copy of the membership view (zero View for
// single-node mode).
func (n *Node) View() View {
	if n.members == nil {
		return View{}
	}
	return n.members.viewClone()
}

// Close drains the background loops, flushes any unshipped journal records,
// and closes the inner service.
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	err := n.svc.Close(ctx)
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
// service dies mid-flight. The chaos harness's node-kill injection.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.svc.Kill()
	n.wg.Wait()
	if n.standby != nil {
		n.standby.close()
	}
}

// buildMux assembles the HTTP surface.
func (n *Node) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", n.handleHealthz)
	mux.HandleFunc("/readyz", n.handleReadyz)
	mux.HandleFunc("/internal/v1/result", n.handleResult)
	mux.HandleFunc("/internal/v1/offer", n.handleOffer)
	mux.HandleFunc("/internal/v1/steal", n.handleSteal)
	mux.HandleFunc("/internal/v1/complete", n.handleComplete)
	mux.HandleFunc("/internal/v1/ship", n.handleShip)
	mux.HandleFunc("/internal/v1/gossip", n.handleGossip)
	mux.HandleFunc("/internal/v1/join", n.handleJoin)
	mux.HandleFunc("/internal/v1/handoff", n.handleHandoff)
	mux.HandleFunc("/internal/v1/handoff-journal", n.handleHandoffJournal)
	mux.HandleFunc("/internal/v1/digest", n.handleDigest)
	mux.HandleFunc("/v1/cluster/drain", n.handleDrainRequest)
	mux.HandleFunc("/v1/cluster/stats", n.handleClusterStats)
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
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
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
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// handleReadyz is readiness: 200 only when the inner service can do real
// work (journal writable, breaker not open, not draining) and, in dynamic
// mode, the node has been admitted to the ring — a joiner can compute, but
// routing traffic at it before admission hides it from the ownership map.
// Unreadiness is 503 with the failing gate named, so load balancers drain
// the node while operators read why.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if n.members != nil && n.members.selfState() == StateJoining {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unready", "reason": "joining: not yet admitted to the ring"})
		return
	}
	if err := n.svc.Ready(); err != nil {
		w.Header().Set("Content-Type", "application/json")
		if ra := service.RetryAfter(err); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unready", "reason": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
}

// handleResult serves a peer's cache-fill request: the cached result (with
// schedule) for ?key=, or 404.
func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	res, ok := n.svc.ResultByKey(key)
	if !ok {
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	n.ctr.FillsServed.Add(1)
	reply(w, http.StatusOK, res)
}

// offerMsg is the body of /internal/v1/offer: the computed result plus,
// when the offering node knows it, the originating request — which makes the
// installed entry recheckable by the owner's anti-entropy repair loop.
type offerMsg struct {
	Res *service.Result
	Req *service.Request
}

func (m *offerMsg) AppendBinary(b []byte) []byte {
	return appendOptional(appendOptional(b, m.Res), m.Req)
}

func (m *offerMsg) DecodeBinary(r *bin.Reader) {
	m.Res, m.Req = decodeOptional[service.Result](r), decodeOptional[service.Request](r)
}

// handleOffer installs a peer-computed result into the local cache. A
// divergence (offer conflicting with a cached entry) is 409 — the offering
// peer logs it; both sides count it.
func (n *Node) handleOffer(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	var msg offerMsg
	if !n.accept(w, r, &msg) {
		return
	}
	if msg.Res == nil {
		http.Error(w, "bad offer body: no result", http.StatusBadRequest)
		return
	}
	if err := n.svc.OfferResult(key, msg.Res, msg.Req); err != nil {
		if errors.Is(err, diag.ErrDivergence) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply(w, http.StatusNoContent, nil)
}

// handleSteal lends up to ?max= queued jobs to the calling peer.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	max := n.cfg.StealBatch
	if v := r.URL.Query().Get("max"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			max = parsed
		}
	}
	jobs := stolenJobs(n.svc.StealQueued(max))
	reply(w, http.StatusOK, &jobs)
}

// completeMsg is the body of /internal/v1/complete: a stolen job's outcome.
// A nil Result is an abort — the stealer could not execute the job and hands
// it back.
type completeMsg struct {
	ID     string
	Result *service.Result
}

func (m *completeMsg) AppendBinary(b []byte) []byte {
	return appendOptional(bin.AppendString(b, m.ID), m.Result)
}

func (m *completeMsg) DecodeBinary(r *bin.Reader) {
	m.ID, m.Result = r.String(), decodeOptional[service.Result](r)
}

// handleComplete installs a stolen job's remotely computed result (or abort).
// A corrupt completion is rejected: the job stays lent and the reclaim timer
// re-enqueues it locally — delayed, never wrong.
func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	var msg completeMsg
	if !n.accept(w, r, &msg) {
		return
	}
	if msg.ID == "" {
		http.Error(w, "bad completion body: no job id", http.StatusBadRequest)
		return
	}
	n.svc.CompleteStolen(msg.ID, msg.Result)
	reply(w, http.StatusNoContent, nil)
}

// handleShip receives a journal-shipping batch (standby side).
func (n *Node) handleShip(w http.ResponseWriter, r *http.Request) {
	if n.standby == nil {
		http.Error(w, "not a standby", http.StatusNotFound)
		return
	}
	var batch shipBatch
	if !n.accept(w, r, &batch) {
		return
	}
	if err := n.standby.apply(&batch); err != nil {
		if errors.Is(err, diag.ErrCorruption) {
			// The batch's lines do not match its checksum. The batch is
			// discarded unapplied; 409 makes the shipper open a fresh epoch
			// with a snapshot, which supersedes the lost lines — corruption
			// repair rides the existing resync path.
			n.ctr.ShipCorrupt.Add(1)
			n.reportPeerCorruption("", err)
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if errors.Is(err, errShipGap) {
			// The stream has a hole (standby restarted, batch lost to a
			// partition). 409 tells the shipper to resync with a snapshot.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, http.StatusNoContent, nil)
}
