package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/service"
)

// backlog pins n's single worker on the slow plug job and submits reqs behind
// it, so the queue holds exactly those jobs until the plug finishes. Returns
// their ids.
func backlog(t *testing.T, n *Node, reqs []service.Request) []string {
	t.Helper()
	plug := mustSubmit(t, n, service.Request{Source: slowSrc, Threads: 1})
	for deadline := time.Now().Add(5 * time.Second); ; {
		if v, err := n.Service().Lookup(plug); err == nil && v.Status != service.StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the plug job never left the queue")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = mustSubmit(t, n, req)
	}
	return ids
}

// wantLocal waits for every id on n and requires the reference core, computed
// on n itself: whatever a damaged exchange did, the job finished, at home,
// with the right answer.
func wantLocal(t *testing.T, n *Node, ids []string, reqs []service.Request) {
	t.Helper()
	for i, id := range ids {
		res := waitResult(t, n.Service(), id)
		if res.Remote {
			t.Fatalf("job %s was completed remotely through a link that verifies nothing", id)
		}
		ref, err := n.Service().ExecuteDetached(context.Background(), reqs[i])
		if err != nil {
			t.Fatalf("reference execution: %v", err)
		}
		if res.Core() != ref.Core() {
			t.Fatalf("job %s core %s, want %s", id, res.Core(), ref.Core())
		}
	}
}

func variants(src string, n int) []service.Request {
	reqs := make([]service.Request, n)
	for i := range reqs {
		reqs[i] = service.Request{Source: src, PerturbSeed: int64(i)}
	}
	return reqs
}

// TestStripSumsRejectsEveryMessage: a link that drops X-Detserve-Sum (a
// header-rewriting proxy) must make every route in the table fail closed.
// Per route: the receiver refuses the request and counts it
// (corrupt_payloads on the node, corruption_events on its service), nothing
// the message carried is installed or served, and the work it was about
// still completes — by local recompute, reclaim, or a retry once the link is
// honest again.
func TestStripSumsRejectsEveryMessage(t *testing.T) {
	ctx := context.Background()
	peers := []string{"node-a", "node-b"}
	oneWorker := func(c *Config) {
		c.Service.Workers = 1
		c.Service.StealReclaim = 50 * time.Millisecond
	}

	// Each case, keyed by its route's path, runs its exchange between a fresh
	// node-a and node-b whose link strips checksums, and returns the node that
	// had to refuse.
	type stripCase struct {
		name string
		run  func(t *testing.T, net *LoopNet, dir string) (refuser *Node, cleanup func())
	}
	cases := map[string]stripCase{
		fillRoute.path: {"fill", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, nil)
			req, _ := keyOwnedBy(t, a, srcOf(t, "ocean"), false)
			want := waitResult(t, b.Service(), mustSubmit(t, b, req))
			net.StripSums("node-a", "node-b")
			got := waitResult(t, a.Service(), mustSubmit(t, a, req))
			if got.PeerFilled || got.Core() != want.Core() {
				t.Fatalf("fill through a stripping link: peer_filled=%v core %s, want local recompute of %s", got.PeerFilled, got.Core(), want.Core())
			}
			if st := b.Stats(); st.FillsServed != 0 {
				t.Fatalf("owner served a fill it could not verify: %+v", st)
			}
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		offerRoute.path: {"offer", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, nil)
			net.StripSums("node-a", "node-b")
			req, key := keyOwnedBy(t, a, srcOf(t, "ocean"), false)
			waitResult(t, a.Service(), mustSubmit(t, a, req))
			for deadline := time.Now().Add(5 * time.Second); a.Stats().OfferFails == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the stripped offer never failed")
				}
				time.Sleep(time.Millisecond)
			}
			if _, ok := b.Service().ResultByKey(key); ok {
				t.Fatal("owner installed an offer it could not verify")
			}
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		stealRoute.path: {"steal", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, oneWorker)
			reqs := variants(srcOf(t, "volrend"), 3)
			ids := backlog(t, b, reqs)
			net.StripSums("node-a", "node-b")
			if jobs, err := stealRoute.call(ctx, a, "node-b", &stealMsg{Max: 2}); statusOf(err) != http.StatusUnprocessableEntity {
				t.Fatalf("steal = %v, err %v; want 422", jobs, err)
			}
			if b.Service().Snapshot().JobsStolen != 0 {
				t.Fatal("the victim lent jobs to a request it could not verify")
			}
			wantLocal(t, b, ids, reqs)
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		completeRoute.path: {"complete", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, oneWorker)
			reqs := variants(srcOf(t, "volrend"), 2)
			ids := backlog(t, b, reqs)
			jobs, err := stealRoute.call(ctx, a, "node-b", &stealMsg{Max: 1})
			if err != nil || len(*jobs) != 1 {
				t.Fatalf("honest steal: %v, err %v", jobs, err)
			}
			net.StripSums("node-a", "node-b")
			a.runStolen(ctx, "node-b", (*jobs)[0])
			if st := a.Stats(); st.CompleteFails != 1 || st.CompletesSent != 0 {
				t.Fatalf("stripped completion counted as sent: %+v", st)
			}
			wantLocal(t, b, ids, reqs)
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		shipRoute.path: {"ship", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			shipPath := filepath.Join(dir, "shipped.journal")
			b := tnode(t, net, "node-b", nil, func(c *Config) { c.ShipPath = shipPath })
			a := tnode(t, net, "node-a", nil, func(c *Config) {
				c.Standby = "node-b"
				c.Service.JournalPath = filepath.Join(dir, "a.journal")
			})
			net.StripSums("node-a", "node-b")
			id := mustSubmit(t, a, service.Request{Source: srcOf(t, "ocean")})
			want := waitResult(t, a.Service(), id).Core()
			if sent, err := a.ShipFlush(ctx); err == nil {
				t.Fatalf("stripped ship batch accepted (%d lines)", sent)
			}
			if fi, err := os.Stat(shipPath); err != nil || fi.Size() != 0 {
				t.Fatalf("standby journal took unverified bytes: %v, err %v", fi, err)
			}
			// The stream is intact on the shipper: an honest link delivers it.
			net.HealAll()
			if sent, err := a.ShipFlush(ctx); err != nil || sent == 0 {
				t.Fatalf("flush after heal: sent %d, err %v", sent, err)
			}
			b.Close(ctx)
			svc, err := Takeover(shipPath, service.Config{Workers: 1})
			if err != nil {
				t.Fatalf("takeover: %v", err)
			}
			if got := waitResult(t, svc, id).Core(); got != want {
				t.Fatalf("takeover core %s, want %s", got, want)
			}
			return b, func() { a.Close(ctx); svc.Close(ctx) }
		}},
		gossipRoute.path: {"gossip", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, nil)
			net.StripSums("node-a", "node-b")
			a.members.bumpSelf(StateDraining) // news worth spreading
			before := b.Epoch()
			if a.exchangeView(ctx, "node-b") {
				t.Fatal("view exchange succeeded through a stripping link")
			}
			if b.Epoch() != before || a.Stats().GossipFails != 1 {
				t.Fatalf("unverified view merged: epoch %d → %d, sender stats %+v", before, b.Epoch(), a.Stats())
			}
			net.HealAll()
			if !a.exchangeView(ctx, "node-b") || b.Epoch() != a.Epoch() {
				t.Fatalf("views did not converge after heal: %d vs %d", a.Epoch(), b.Epoch())
			}
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		joinRoute.path: {"join", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a := dnode(t, net, "node-a", []string{}, nil)
			b := dnode(t, net, "node-b", []string{"node-a"}, nil)
			net.StripSums("node-a", "node-b")
			if err := b.Join(ctx); err == nil {
				t.Fatal("Join succeeded through a stripping link")
			}
			if _, known := a.View().Members["node-b"]; known || readyzCode(b) != http.StatusServiceUnavailable {
				t.Fatalf("unverified join announcement merged (seed knows joiner: %v)", known)
			}
			net.HealAll()
			if err := b.Join(ctx); err != nil || a.View().Digest() != b.View().Digest() {
				t.Fatalf("Join after heal: %v", err)
			}
			return a, func() { a.Close(ctx); b.Close(ctx) }
		}},
		handoffRoute.path: {"handoff", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, oneWorker), tnode(t, net, "node-b", peers, nil)
			reqs, _ := reqsOwnedBy(t, a, srcOf(t, "volrend"), "node-b", 2)
			ids := backlog(t, a, reqs)
			net.StripSums("node-a", "node-b")
			for _, sj := range a.Service().StealQueued(2) {
				a.handoffJob(ctx, sj)
			}
			if a.Stats().HandoffJobsSent != 0 || b.Stats().HandoffJobsRecv != 0 {
				t.Fatalf("unverified handoff went through: sent %d, received %d", a.Stats().HandoffJobsSent, b.Stats().HandoffJobsRecv)
			}
			wantLocal(t, a, ids, reqs)
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		journalRoute.path: {"handoff-journal", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a := tnode(t, net, "node-a", peers, func(c *Config) { c.Service.JournalPath = filepath.Join(dir, "a.journal") })
			b := tnode(t, net, "node-b", peers, func(c *Config) { c.Service.JournalPath = filepath.Join(dir, "b.journal") })
			waitResult(t, a.Service(), mustSubmit(t, a, service.Request{Source: srcOf(t, "ocean")}))
			net.StripSums("node-a", "node-b")
			if err := a.handoffJournal(ctx); err == nil {
				t.Fatal("journal segment accepted through a stripping link")
			}
			if side, _ := filepath.Glob(filepath.Join(dir, "b.journal.handoff-*")); len(side) != 0 || b.Stats().JournalHandoffsRecv != 0 {
				t.Fatalf("successor persisted an unverified segment: %v", side)
			}
			net.HealAll()
			if err := a.handoffJournal(ctx); err != nil {
				t.Fatalf("journal handoff after heal: %v", err)
			}
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		digestRoute.path: {"digest", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, nil)
			// b holds an entry a owns and never received: repair's job.
			net.Partition("node-a", "node-b")
			reqs, keys := reqsOwnedBy(t, a, srcOf(t, "raytrace"), "node-a", 1)
			want := waitResult(t, b.Service(), mustSubmit(t, b, reqs[0]))
			for deadline := time.Now().Add(5 * time.Second); b.Stats().OfferFails == 0; {
				if time.Now().After(deadline) {
					t.Fatal("partitioned offer never failed")
				}
				time.Sleep(time.Millisecond)
			}
			net.HealAll()
			net.StripSums("node-a", "node-b")
			if n := a.RepairOnce(ctx); n != 0 {
				t.Fatalf("repair reconciled %d keys from digests it could not verify", n)
			}
			if _, ok := a.Service().ResultByKey(keys[0]); ok {
				t.Fatal("repair pulled an entry through a stripping link")
			}
			got := waitResult(t, a.Service(), mustSubmit(t, a, reqs[0]))
			if got.Core() != want.Core() {
				t.Fatalf("owner recompute core %s, want %s", got.Core(), want.Core())
			}
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
		bucketRoute.path: {"bucket", func(t *testing.T, net *LoopNet, dir string) (*Node, func()) {
			a, b := tnode(t, net, "node-a", peers, nil), tnode(t, net, "node-b", peers, nil)
			net.StripSums("node-a", "node-b")
			if keys, err := bucketRoute.call(ctx, a, "node-b", &bucketMsg{Owner: "node-a"}); statusOf(err) != http.StatusUnprocessableEntity {
				t.Fatalf("bucket round = %v, err %v; want 422", keys, err)
			}
			return b, func() { a.Close(ctx); b.Close(ctx) }
		}},
	}
	for _, r := range table() {
		tc, ok := cases[r.routePath()]
		if !ok {
			t.Fatalf("%s: no stripped-link case", r.routePath())
		}
		t.Run(tc.name, func(t *testing.T) {
			refuser, cleanup := tc.run(t, NewLoopNet(), t.TempDir())
			defer cleanup()
			if n := refuser.Stats().CorruptPayloads; n == 0 {
				t.Errorf("%s: corrupt_payloads = 0 after refusing an unverifiable %s message", refuser.Name(), tc.name)
			}
			if n := refuser.Service().Snapshot().CorruptionEvents; n == 0 {
				t.Errorf("%s: corruption_events = 0 after refusing an unverifiable %s message", refuser.Name(), tc.name)
			}
		})
	}
}

// TestStealReplyCorruptionRejected: one flipped bit in a /internal/v1/steal
// reply (which carries program text) used to make the stealer run a different
// program and post that result back under the origin's job id. The reply is
// now verified like every other: the stealer drops it whole, counts it and
// quarantines the victim; the lent jobs are reclaimed and finish at home.
func TestStealReplyCorruptionRejected(t *testing.T) {
	net := NewLoopNet()
	ctx := context.Background()
	peers := []string{"node-a", "node-b"}
	victim := tnode(t, net, "node-a", peers, func(c *Config) {
		c.Service.Workers = 1
		c.Service.StealReclaim = 50 * time.Millisecond
	})
	thief := tnode(t, net, "node-b", peers, nil)
	defer victim.Close(ctx)
	defer thief.Close(ctx)

	reqs := variants(srcOf(t, "volrend"), 4)
	ids := backlog(t, victim, reqs)
	thief.ProbeOnce(ctx) // learn the victim's queue depth
	net.CorruptResponses("node-a", "node-b", 1, 7)
	if n := thief.StealOnce(ctx); n != 0 {
		t.Fatalf("stole %d jobs from a reply that failed its checksum", n)
	}
	st := thief.Stats()
	if st.CorruptPayloads != 1 || st.PeerQuarantines != 1 || st.StealsDone != 0 || st.CompletesSent != 0 {
		t.Fatalf("thief stats after a corrupt steal reply: %+v", st)
	}
	if thief.Service().Snapshot().CorruptionEvents != 1 {
		t.Fatal("thief's service never heard about the corrupt reply")
	}
	if victim.Service().Snapshot().JobsStolen == 0 {
		t.Fatal("test staging broke: the victim lent nothing, so no program text crossed the wire")
	}
	wantLocal(t, victim, ids, reqs)
}

// replayDoer answers every request with one canned status-200 response: the
// client half of FuzzPeerMessage.
type replayDoer struct {
	sum  atomic.Pointer[string]
	body atomic.Pointer[[]byte]
}

func (d *replayDoer) Do(*http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(*d.body.Load()))}
	if sum := *d.sum.Load(); sum != "" {
		resp.Header.Set(sumHeader, sum)
	}
	return resp, nil
}

// FuzzPeerMessage feeds arbitrary (checksum header, body) pairs through both
// ends of every route in the table, seeded with each route's request and
// reply in their own encoding (routeSamples) and every truncation of each
// frame: as a request into the route's handler, and as a reply into the
// route's decoder. The invariant is the protocol's one rule — bytes are
// decoded only if the header is exactly their CRC32C — so a pair that does
// not verify is always 422 / ErrCorruption, a pair that does never is (but
// for a journal handoff whose lines miss their own sum), and nothing panics
// either way.
//
// Run with: go test -run '^$' -fuzz FuzzPeerMessage -fuzztime 10s -fuzzminimizetime 1s ./internal/cluster/
func FuzzPeerMessage(f *testing.F) {
	samples := routeSamples(f)
	for _, r := range table() {
		for _, msg := range samples[r.routePath()] {
			if msg == nil {
				continue
			}
			body, _, err := encode(msg)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(fmt.Sprintf("%08x", bodySum(body)), body)
			f.Add(fmt.Sprintf("%08x", bodySum(body)^1), body)
			f.Add("", body)
			if _, framed := msg.(frameMsg); !framed {
				continue
			}
			// A frame cut at every length, each cut correctly summed so that
			// it reaches the decoder.
			for n := 0; n < len(body); n++ {
				f.Add(fmt.Sprintf("%08x", bodySum(body[:n])), body[:n])
			}
		}
	}
	f.Add("0", []byte{})
	f.Add("+0000000", []byte{})
	f.Add("00000000", []byte{})

	doer := &replayDoer{}
	node := frameNode(f, doer)
	innerSumWrong := func(body []byte) bool {
		var m journalHandoffMsg
		return decode(body, &m) == nil && m.From != "" && sumLines(m.Lines) != m.Sum
	}

	f.Fuzz(func(t *testing.T, sum string, body []byte) {
		declared, err := hex.DecodeString(sum)
		verifies := err == nil && len(declared) == 4 && binary.BigEndian.Uint32(declared) == bodySum(body)
		for _, rt := range table() {
			r := httptest.NewRequest(http.MethodPost, rt.routePath(), bytes.NewReader(body))
			if sum != "" {
				r.Header.Set(sumHeader, sum)
			}
			rec := httptest.NewRecorder()
			node.Handler().ServeHTTP(rec, r)
			refused := rec.Code == http.StatusUnprocessableEntity
			if refused == verifies && !(refused && rt.routePath() == journalRoute.path && innerSumWrong(body)) {
				t.Fatalf("%s: status %d for header %q over %q (verifies: %v)", rt.routePath(), rec.Code, sum, body, verifies)
			}
			if rec.Code/100 == 2 && rec.Header().Get(sumHeader) == "" {
				t.Fatalf("%s: %d reply without a checksum", rt.routePath(), rec.Code)
			}
		}
		doer.sum.Store(&sum)
		doer.body.Store(&body)
		for _, rt := range table() {
			if err := rt.callZero(node); errors.Is(err, diag.ErrCorruption) == verifies {
				t.Fatalf("reply to %s: err %v for header %q over %q (verifies: %v)", rt.routePath(), err, sum, body, verifies)
			}
		}
	})
}
