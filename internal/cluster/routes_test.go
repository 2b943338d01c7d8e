package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// testRoute is what the tests that range over the route table see of a
// route. Each of them fails when the table holds a route it does not
// exercise.
type testRoute interface {
	peerRoute
	routePath() string
	served() servedWhen
	// callZero runs the route's sending end against peer node-b with a zero
	// request, so the reply decoder is whatever node's transport answers.
	callZero(n *Node) error
	// fits reports whether in is the route's request type and out its reply
	// type (nil for a route that answers 204).
	fits(in, out any) bool
}

func (r *route[In, Out]) routePath() string  { return r.path }
func (r *route[In, Out]) served() servedWhen { return r.when }

func (r *route[In, Out]) callZero(n *Node) error {
	_, err := r.call(context.Background(), n, "node-b", new(In))
	return err
}

func (r *route[In, Out]) fits(in, out any) bool {
	_, inOK := in.(*In)
	_, outOK := out.(*Out)
	_, empty := any(new(Out)).(*none)
	return inOK && (outOK || (empty && out == nil))
}

// table is the route table as the tests see it.
func table() []testRoute {
	out := make([]testRoute, len(routes))
	for i, r := range routes {
		out[i] = r.(testRoute)
	}
	return out
}

// routeSamples is one request and one reply (nil for 204) per route, keyed by
// path: FuzzPeerMessage's seeds and the bodies TestRequestFlipsRefused
// damages. It fails t when a route has no sample or a sample of the wrong
// type.
func routeSamples(t testing.TB) map[string][2]any {
	t.Helper()
	res := &service.Result{Outcome: service.Outcome{ScheduleHash: "00ff", ScheduleLen: 1}}
	req := &service.Request{Source: "module m"}
	view := staticView([]string{"node-a", "node-b"})
	line := [][]byte{[]byte("#c1 00000000 2 {}\n")}
	job := service.StolenJob{ID: "job-1", Req: *req}
	samples := map[string][2]any{
		fillRoute.path:     {&fillMsg{Key: "k"}, res},
		offerRoute.path:    {&offerMsg{Key: "k", Res: res, Req: req}, nil},
		stealRoute.path:    {&stealMsg{Max: 1}, &stolenJobs{job}},
		completeRoute.path: {&completeMsg{ID: "job-1", Result: res}, nil},
		handoffRoute.path:  {&handoffMsg{Origin: "node-b", Job: job}, nil},
		journalRoute.path:  {&journalHandoffMsg{From: "node-b", Lines: line, Sum: sumLines(line)}, nil},
		shipRoute.path:     {&shipBatch{From: "node-b", Epoch: 1, Snapshot: true, Lines: line, Sum: sumLines(line)}, nil},
		gossipRoute.path:   {&gossipMsg{From: "node-b", View: view}, &view},
		joinRoute.path:     {&gossipMsg{From: "node-b", View: view}, &joinReply{View: view, Snapshot: line}},
		digestRoute.path:   {&digestMsg{Owner: "node-a"}, &bucketSummary{}},
		bucketRoute.path:   {&bucketMsg{Owner: "node-a"}, &[]repairKey{{Key: "k", Hash: "h"}}},
	}
	for _, r := range table() {
		s, ok := samples[r.routePath()]
		if !ok || !r.fits(s[0], s[1]) {
			t.Fatalf("%s: no sample of its request and reply types", r.routePath())
		}
	}
	return samples
}

// TestRequestFlipsRefused flips, in turn, the low bit of every byte of every
// route's request — the bytes the receiver acts on, parameters included — and
// delivers it under the checksum of the undamaged bytes. Each must be refused
// with 422 and counted, and nothing it carried may reach the cache or the
// view. (While parameters travelled in the query, a flip inside an offer's
// key installed a self-consistent entry under the damaged key.)
func TestRequestFlipsRefused(t *testing.T) {
	node := frameNode(t, &replayDoer{})
	samples := routeSamples(t)
	view := node.View().Digest()
	counted := int64(0)
	for _, r := range table() {
		body, _, err := encode(samples[r.routePath()][0])
		if err != nil {
			t.Fatal(err)
		}
		h := http.Header{}
		setSum(h, body)
		for i := range body {
			flipped := bytes.Clone(body)
			flipped[i] ^= 1
			req := httptest.NewRequest(http.MethodPost, r.routePath(), bytes.NewReader(flipped))
			req.Header.Set(sumHeader, h.Get(sumHeader))
			rec := httptest.NewRecorder()
			node.Handler().ServeHTTP(rec, req)
			counted++
			if rec.Code != http.StatusUnprocessableEntity || node.Stats().CorruptPayloads != counted {
				t.Fatalf("%s: byte %d flipped: status %d, corrupt_payloads %d (want 422, %d)",
					r.routePath(), i, rec.Code, node.Stats().CorruptPayloads, counted)
			}
		}
	}
	if n := len(node.Service().CacheScan()); n != 0 || node.View().Digest() != view {
		t.Fatalf("damaged requests changed state: %d cache entries, view %s → %s", n, view, node.View().Digest())
	}
}
