package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// membership combines two deliberately separate planes:
//
//   - the View: the versioned, gossiped cluster configuration (who is a
//     member, in which lifecycle state, at which config epoch). It is global
//     state every node converges on, and it alone decides ring ownership.
//   - the probe overlay: per-peer liveness from this node's own health
//     probes. It is local observation — node A may reach B while C cannot —
//     and it only decides whether to *talk* to a peer right now, never who
//     owns what.
//
// Failure detection stays deterministic by construction: a peer is marked
// down after exactly FailThreshold consecutive probe failures and up again
// after a single success — no randomised timers, no phi-accrual estimation.
// With a fixed probe schedule and a fixed fault schedule, every node makes
// the same liveness decisions at the same probe counts, which is what lets
// the chaos property assert cluster-wide behaviour rather than race against
// an adaptive detector.
type membership struct {
	self      string
	client    Doer
	timeout   time.Duration
	threshold int

	mu    sync.Mutex
	view  View
	peers map[string]*peerState
}

// peerState is one peer's probe bookkeeping.
type peerState struct {
	alive    bool
	failures int   // consecutive probe failures
	depth    int   // last reported queue depth (work-stealing signal)
	probes   int64 // total probes sent

	// quarantined marks a peer that served corrupt bytes. Quarantine is a
	// harsher down-state than probe failure: a down peer re-enters on a
	// single probe success (it was merely unreachable), a quarantined peer
	// needs threshold *consecutive* successes (it answered — wrongly — so
	// one good answer proves little about its storage or path).
	quarantined bool
	successes   int // consecutive successes while quarantined
}

// healthReport is the /healthz body peers exchange.
type healthReport struct {
	Status     string `json:"status"`
	Node       string `json:"node"`
	QueueDepth int    `json:"queue_depth"`
	Ready      bool   `json:"ready"`
}

func baseMembership(self string, client Doer, timeout time.Duration, threshold int) *membership {
	if threshold <= 0 {
		threshold = 3
	}
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	return &membership{
		self:      self,
		client:    client,
		timeout:   timeout,
		threshold: threshold,
		peers:     make(map[string]*peerState),
	}
}

// newMembership builds the static-cluster membership: every listed peer plus
// self, all active at epoch 1. The peer list is hardened here rather than
// trusted: repeated names are deduplicated (a copy-pasted config must not
// give one node two ring shares or two probe streams) and self is ignored if
// it appears in its own peer list (a node must never probe, fill from, or
// steal from itself). Empty strings are skipped.
func newMembership(self string, peers []string, client Doer, timeout time.Duration, threshold int) *membership {
	m := baseMembership(self, client, timeout, threshold)
	m.view = staticView(append([]string{self}, dedupePeers(self, peers)...))
	m.syncPeersLocked()
	return m
}

// newDynamicMembership builds a gossip-mode membership. A bootstrap node
// (empty seed list) starts as the active cluster-of-one other nodes join;
// a joiner starts in StateJoining and is admitted to the ring only after its
// bootstrap handshake verifies.
func newDynamicMembership(self string, bootstrap bool, client Doer, timeout time.Duration, threshold int) *membership {
	m := baseMembership(self, client, timeout, threshold)
	if bootstrap {
		m.view = staticView([]string{self})
	} else {
		m.view = joiningView(self)
	}
	m.syncPeersLocked()
	return m
}

// syncPeersLocked reconciles the probe overlay with the view: every non-self,
// non-left member gets a probe record (starting alive — a fresh node must not
// refuse to fill from a healthy cluster before its first probe round), and
// departed members are dropped. Callers hold m.mu or own m exclusively.
func (m *membership) syncPeersLocked() {
	for name, mem := range m.view.Members {
		if name == m.self {
			continue
		}
		if mem.State == StateLeft {
			delete(m.peers, name)
			continue
		}
		if _, ok := m.peers[name]; !ok {
			m.peers[name] = &peerState{alive: true}
		}
	}
}

// merge folds a remote view in, reconciles the probe overlay, and reports
// whether anything changed (the caller rebuilds the ring when it did).
func (m *membership) merge(v View) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := m.view.Merge(v)
	if changed {
		m.syncPeersLocked()
	}
	return changed
}

// bumpSelf advances the config epoch with a new lifecycle state for this
// node and returns the resulting view clone (the gossip payload).
func (m *membership) bumpSelf(state MemberState) View {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.view.Bump(m.self, state)
	m.syncPeersLocked()
	return m.view.Clone()
}

// viewClone returns a deep copy of the current view.
func (m *membership) viewClone() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Clone()
}

// epoch returns the current config epoch.
func (m *membership) epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Epoch
}

// ringMembers returns the sorted active members — the ring's node set.
func (m *membership) ringMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.RingMembers()
}

// selfState returns this node's own lifecycle state in the view.
func (m *membership) selfState() MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Members[m.self].State
}

// alive reports whether addr is currently believed up. The local node is
// always alive to itself; unknown (or departed) addresses are dead.
func (m *membership) alive(addr string) bool {
	if addr == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	return ok && p.alive
}

// depth returns addr's last reported queue depth (0 for unknown/down peers).
func (m *membership) depth(addr string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[addr]; ok && p.alive {
		return p.depth
	}
	return 0
}

// peerList returns the tracked peer addresses, for iteration.
func (m *membership) peerList() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.peers))
	for p := range m.peers {
		out = append(out, p)
	}
	return out
}

// probeOnce probes every peer once, applying the threshold transition rules.
// It is the loop body of the background prober and the direct entry point
// deterministic tests drive.
func (m *membership) probeOnce(ctx context.Context) {
	for _, addr := range m.peerList() {
		rep, err := m.probe(ctx, addr)
		m.mu.Lock()
		p, ok := m.peers[addr]
		if !ok {
			m.mu.Unlock()
			continue
		}
		p.probes++
		if err != nil {
			p.failures++
			p.successes = 0
			if p.failures >= m.threshold {
				p.alive = false
			}
		} else if p.quarantined {
			// Re-entry from quarantine demands threshold consecutive clean
			// probes, not one: the peer was answering when it corrupted.
			p.failures = 0
			p.successes++
			if p.successes >= m.threshold {
				p.quarantined = false
				p.alive = true
				p.depth = rep.QueueDepth
			}
		} else {
			p.failures = 0
			p.alive = true
			p.depth = rep.QueueDepth
		}
		m.mu.Unlock()
	}
}

// quarantine marks addr down for serving corrupt bytes; it re-enters only
// after threshold consecutive probe successes. Reports whether the peer was
// newly quarantined (false for repeat offenders already in quarantine).
func (m *membership) quarantine(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok || p.quarantined {
		return false
	}
	p.quarantined = true
	p.alive = false
	p.successes = 0
	return true
}

// probe issues one /healthz request to addr.
func (m *membership) probe(ctx context.Context, addr string) (*healthReport, error) {
	ctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz %s: status %d", addr, resp.StatusCode)
	}
	var rep healthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("healthz %s: %w", addr, err)
	}
	return &rep, nil
}

// snapshot renders per-peer liveness and membership state for stats and the
// smoke harness. It covers every view member except self — including left
// tombstones, which carry state but no probe bookkeeping.
func (m *membership) snapshot() map[string]PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]PeerStatus, len(m.view.Members))
	for name, mem := range m.view.Members {
		if name == m.self {
			continue
		}
		st := PeerStatus{State: string(mem.State), Stamp: mem.Stamp}
		if p, ok := m.peers[name]; ok {
			st.Alive = p.alive
			st.Failures = p.failures
			st.QueueDepth = p.depth
			st.Probes = p.probes
			st.Quarantined = p.quarantined
		}
		out[name] = st
	}
	return out
}

// PeerStatus is one peer's externally visible liveness and membership state.
type PeerStatus struct {
	Alive      bool  `json:"alive"`
	Failures   int   `json:"failures"`
	QueueDepth int   `json:"queue_depth"`
	Probes     int64 `json:"probes"`
	// Quarantined: the peer served corrupt bytes and is treated as down
	// until it passes the threshold of consecutive health probes.
	Quarantined bool `json:"quarantined,omitempty"`
	// State is the peer's lifecycle state in the membership view, and Stamp
	// the config epoch it was set at.
	State string `json:"state,omitempty"`
	Stamp int64  `json:"stamp,omitempty"`
}
