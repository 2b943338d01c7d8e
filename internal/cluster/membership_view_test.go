package cluster

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/detrand"
	"repro/internal/diag"
	"repro/internal/service"
)

// TestViewMergeSemilattice checks the merge algebra the gossip plane rests
// on over named hand-built views and views drawn from detrand: commutative,
// associative and idempotent on Digest(), the epoch never decreasing (it is
// the max of the sides), and Merge reporting a change exactly when the digest
// moved. The named inputs also pin what the algebra alone leaves open: the
// higher stamp wins, and equal stamps break toward the later lifecycle state.
func TestViewMergeSemilattice(t *testing.T) {
	merge := func(a, b View) (View, bool) {
		m := a.Clone()
		changed := m.Merge(b)
		return m, changed
	}
	base := staticView([]string{"node-a", "node-b"})
	draining := base.Clone()
	draining.Bump("node-a", StateDraining) // epoch 2, a@2
	left := base.Clone()
	left.Bump("node-b", StateLeft) // epoch 2, b@2
	tieActive := View{Epoch: 5, Members: map[string]Member{"x": {State: StateActive, Stamp: 5}}}
	tieDraining := View{Epoch: 5, Members: map[string]Member{"x": {State: StateDraining, Stamp: 5}}}
	staleLeft := View{Epoch: 4, Members: map[string]Member{"x": {State: StateLeft, Stamp: 3}}}
	freshActive := View{Epoch: 4, Members: map[string]Member{"x": {State: StateActive, Stamp: 4}}}

	if m, _ := merge(draining, left); m.Epoch != 2 || m.Members["node-a"].State != StateDraining || m.Members["node-b"].State != StateLeft {
		t.Fatalf("merged view wrong: %+v", m)
	}
	if m, _ := merge(tieActive, tieDraining); m.Members["x"].State != StateDraining {
		t.Fatalf("equal-stamp tie-break picked %s, want draining", m.Members["x"].State)
	}
	if m, _ := merge(staleLeft, freshActive); m.Members["x"].State != StateActive {
		t.Fatalf("higher stamp lost the merge: %+v", m.Members["x"])
	}

	views := []View{base, draining, left, tieActive, tieDraining, staleLeft, freshActive, {}}
	states := []MemberState{StateJoining, StateActive, StateDraining, StateLeft}
	rng := detrand.New(31, 0)
	for i := 0; i < 24; i++ {
		v := View{Epoch: int64(1 + rng.IntN(6)), Members: map[string]Member{}}
		for _, name := range []string{"node-a", "node-b", "x", "y"} {
			if rng.IntN(3) > 0 {
				v.Members[name] = Member{State: states[rng.IntN(len(states))], Stamp: int64(1 + rng.IntN(int(v.Epoch)))}
			}
		}
		views = append(views, v)
	}
	for i, a := range views {
		if _, changed := merge(a, a); changed {
			t.Fatalf("view %d: merging a view into itself reported a change", i)
		}
		for j, b := range views {
			ab, changed := merge(a, b)
			if changed != (ab.Digest() != a.Digest()) {
				t.Fatalf("views %d⊔%d: changed=%v but digest %s → %s", i, j, changed, a.Digest(), ab.Digest())
			}
			if ab.Epoch != max(a.Epoch, b.Epoch) {
				t.Fatalf("views %d⊔%d: epoch %d, want the max of %d and %d", i, j, ab.Epoch, a.Epoch, b.Epoch)
			}
			if ba, _ := merge(b, a); ba.Digest() != ab.Digest() {
				t.Fatalf("views %d, %d: merge is order-dependent: %s vs %s", i, j, ab.Digest(), ba.Digest())
			}
			if _, again := merge(ab, b); again {
				t.Fatalf("views %d⊔%d: re-merging already-known facts reported a change", i, j)
			}
			for k, c := range views {
				lhs, _ := merge(ab, c)
				bc, _ := merge(b, c)
				if rhs, _ := merge(a, bc); lhs.Digest() != rhs.Digest() {
					t.Fatalf("views %d, %d, %d: merge is not associative", i, j, k)
				}
			}
		}
	}

	// Ring membership: active members only, sorted.
	ring := View{Epoch: 9, Members: map[string]Member{
		"c": {State: StateActive, Stamp: 1},
		"a": {State: StateActive, Stamp: 1},
		"j": {State: StateJoining, Stamp: 2},
		"d": {State: StateDraining, Stamp: 3},
		"l": {State: StateLeft, Stamp: 4},
	}}
	if got := ring.RingMembers(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("RingMembers = %v, want active-only sorted [a c]", got)
	}
}

// TestMembershipPeerListHardening is the config-hardening table: repeated
// peer names collapse to one probe stream and ring share, a node listed in
// its own peer list never peers with itself, and empty strings are dropped.
func TestMembershipPeerListHardening(t *testing.T) {
	cases := []struct {
		name      string
		peers     []string
		wantPeers []string
	}{
		{"duplicates", []string{"node-b", "node-b", "node-c", "node-b"}, []string{"node-b", "node-c"}},
		{"self-in-list", []string{"node-a", "node-b"}, []string{"node-b"}},
		{"empty-strings", []string{"", "node-b", ""}, []string{"node-b"}},
		{"only-junk", []string{"", "node-a", "node-a"}, []string{}},
		{"all-at-once", []string{"node-a", "", "node-c", "node-c", "node-b", "node-a"}, []string{"node-b", "node-c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMembership("node-a", tc.peers, nil, 0, 0)
			got := m.peerList()
			sort.Strings(got)
			if !reflect.DeepEqual(got, tc.wantPeers) {
				t.Fatalf("peers(%v) = %v, want %v", tc.peers, got, tc.wantPeers)
			}
			wantRing := append([]string{"node-a"}, tc.wantPeers...)
			sort.Strings(wantRing)
			if ring := m.ringMembers(); !reflect.DeepEqual(ring, wantRing) {
				t.Fatalf("ring(%v) = %v, want %v", tc.peers, ring, wantRing)
			}
			if m.epoch() != 1 {
				t.Fatalf("static view epoch = %d, want 1", m.epoch())
			}
			// dedupePeers (Open's pre-filter) must agree with the membership's
			// own hardening.
			deduped := dedupePeers("node-a", tc.peers)
			sort.Strings(deduped)
			if len(deduped) != len(tc.wantPeers) || (len(deduped) > 0 && !reflect.DeepEqual(deduped, tc.wantPeers)) {
				t.Fatalf("dedupePeers(%v) = %v, want %v", tc.peers, deduped, tc.wantPeers)
			}
		})
	}
}

// TestClusterConfigValidate pins the typed rejection of contradictory
// configurations, both through validate and through Open.
func TestClusterConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"peers-and-seeds", Config{Self: "a", Peers: []string{"b"}, SeedPeers: []string{"c"}}},
		{"seeds-without-self", Config{SeedPeers: []string{"b"}}},
		{"peers-without-self", Config{Peers: []string{"b"}}},
		{"fill-hook-preset", Config{Self: "a", Peers: []string{"b"}, Service: service.Config{
			Fill: func(ctx context.Context, key string, req *service.Request) *service.Result { return nil },
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if err == nil {
				t.Fatal("validate accepted a contradictory config")
			}
			if !errors.Is(err, diag.ErrBadConfig) {
				t.Fatalf("error %v is not ErrBadConfig", err)
			}
			var mis *diag.MisuseError
			if !errors.As(err, &mis) || mis.Op != "cluster.Open" {
				t.Fatalf("error %v is not a cluster.Open MisuseError", err)
			}
			if _, err := Open(tc.cfg); err == nil {
				t.Fatal("Open accepted a config validate rejects")
			}
		})
	}
	good := Config{Self: "a", SeedPeers: []string{}}
	if err := good.validate(); err != nil {
		t.Fatalf("validate rejected a bootstrap config: %v", err)
	}
	if err := (&Config{}).validate(); err != nil {
		t.Fatalf("validate rejected single-node config: %v", err)
	}
}
