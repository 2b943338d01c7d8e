package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/service"
	"repro/internal/trace"
)

// frameNode is node-a of a two-node ring whose peer is whatever doer says.
func frameNode(t testing.TB, doer Doer) *Node {
	t.Helper()
	node, err := Open(Config{
		Self: "node-a", Peers: []string{"node-a", "node-b"}, Client: doer,
		ProbeInterval: -1, StealInterval: -1, ShipInterval: -1, RepairInterval: -1,
		ShipPath: filepath.Join(t.TempDir(), "shipped.journal"),
		Service:  service.Config{Workers: 1, DefaultDeadline: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close(context.Background()) })
	return node
}

// deliver posts body, correctly summed, to one of node's peer endpoints.
func deliver(node *Node, path string, body []byte) int {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	setSum(r.Header, body)
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, r)
	return rec.Code
}

// replyWith makes doer answer the next exchange with body, correctly summed.
func replyWith(doer *replayDoer, body []byte) {
	h := http.Header{}
	setSum(h, body)
	sum := h.Get(sumHeader)
	doer.sum.Store(&sum)
	doer.body.Store(&body)
}

// TestFramesRoundTripAndRefuse: each of the five binary messages decodes to
// what was encoded, and every damaged form of its frame that still carries a
// correct checksum — unknown version byte, a byte appended, cut at any length
// — is refused by both ends: 400 from the handler, an error (so a miss, a
// reclaim, a retry) from the caller, nothing installed, no panic, and never
// counted as corruption: the bytes arrived as sent.
func TestFramesRoundTripAndRefuse(t *testing.T) {
	sched := trace.New()
	sched.Record(3, 1, 40)
	sched.Record(-3, 0, 77)
	res := &service.Result{JobID: "j", ScheduleHash: "00ff", ScheduleLen: 2, Cycles: -9, Clockable: []string{"f", ""}, Schedule: sched}
	req := &service.Request{Source: "module m\xff", Threads: -2, Race: true}
	jobs := stolenJobs{{ID: "job-1", Req: *req}, {}}
	doer := &replayDoer{}
	node := frameNode(t, doer)

	for _, tc := range []struct {
		name string
		msg  frameMsg
		path string // the endpoint that accepts msg as a request, if one does
	}{
		{"fill reply", res, ""},
		{"offer", &offerMsg{Res: res, Req: req}, "/internal/v1/offer?key=k"},
		{"offer without request", &offerMsg{Res: res}, "/internal/v1/offer?key=k"},
		{"steal reply", &jobs, ""},
		{"complete", &completeMsg{ID: "job-1", Result: res}, "/internal/v1/complete"},
		{"abort", &completeMsg{ID: "job-1"}, "/internal/v1/complete"},
		{"handoff", &handoffMsg{Origin: "node-b", Jobs: jobs}, "/internal/v1/handoff"},
	} {
		frame, contentType, err := encode(tc.msg)
		if err != nil || contentType != frameType || frame[0] != frameVersion {
			t.Fatalf("%s: encode: type %q, err %v", tc.name, contentType, err)
		}
		fresh := func() any { return reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface() }
		got := fresh()
		if err := decode(frame, got); err != nil || !reflect.DeepEqual(got, tc.msg) {
			t.Fatalf("%s: round trip: err %v\n got %+v\nwant %+v", tc.name, err, got, tc.msg)
		}

		damaged := [][]byte{append([]byte{frameVersion + 1}, frame[1:]...), append(frame[:len(frame):len(frame)], 0)}
		for n := 0; n < len(frame); n++ {
			damaged = append(damaged, frame[:n])
		}
		for _, body := range damaged {
			if tc.path != "" {
				if code := deliver(node, tc.path, body); code != http.StatusBadRequest {
					t.Fatalf("%s: handler answered %d to damaged frame % x", tc.name, code, body)
				}
			}
			replyWith(doer, body)
			_, err := node.call(context.Background(), http.MethodPost, "node-b", "/x", nil, fresh())
			if err == nil || errors.Is(err, diag.ErrCorruption) {
				t.Fatalf("%s: caller's verdict on damaged frame % x: %v", tc.name, body, err)
			}
		}
	}
	if st := node.Stats(); st.CorruptPayloads != 0 {
		t.Fatalf("verified frames counted as corrupt payloads: %+v", st)
	}

	// A damaged fill reply is a miss, a damaged steal reply lends nothing.
	replyWith(doer, []byte{frameVersion + 1})
	if got := node.fill(context.Background(), keyOwnedByPeer(t, node), req); got != nil {
		t.Fatalf("fill served %+v out of a frame of an unknown version", got)
	}
	if jobs, err := node.stealFrom(context.Background(), "node-b", 1); err == nil || len(jobs) != 0 {
		t.Fatalf("stealFrom = %d jobs, err %v out of a frame of an unknown version", len(jobs), err)
	}
}

// keyOwnedByPeer finds a key frameNode's ring gives to node-b.
func keyOwnedByPeer(t testing.TB, node *Node) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		if key := string(rune('a'+i%26)) + "-key"; node.Owner(key) == "node-b" {
			return key
		}
	}
	t.Fatal("no key owned by node-b")
	return ""
}

// TestFrameLengthsCheckedBeforeAllocation: a frame a few bytes long whose
// schedule, clockable list or job list claims 2³² elements is refused having
// allocated next to nothing.
func TestFrameLengthsCheckedBeforeAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<32)
	result := append([]byte{frameVersion, 1 << 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, huge...) // flags: schedule present; 11 zero fields; 0 clockable
	clockable := append([]byte{frameVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, huge...)
	jobs := append([]byte{frameVersion}, huge...)
	for name, tc := range map[string]struct {
		frame []byte
		out   func() any
	}{
		"schedule":  {result, func() any { return new(service.Result) }},
		"clockable": {clockable, func() any { return new(service.Result) }},
		"jobs":      {jobs, func() any { return new(stolenJobs) }},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := decode(tc.frame, tc.out()); err == nil {
				t.Fatalf("%s: 2³² elements decoded from a %d-byte frame", name, len(tc.frame))
			}
		})
		if allocs > 4 { // the value, the reader, a schedule header: never the elements
			t.Errorf("%s: refusing an impossible length allocated %v objects", name, allocs)
		}
	}
}

// unreadBody fails the test if anything reads it: a body whose declared
// length is already over the cap must be refused unread.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("a body declared over the cap was read")
	return 0, io.EOF
}
func (unreadBody) Close() error { return nil }

// oversizeDoer answers with a reply declared one byte over the cap.
type oversizeDoer struct{ t *testing.T }

func (d oversizeDoer) Do(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: maxWireBody + 1, Body: unreadBody{d.t}}, nil
}

// TestWireBodyCap: neither side buffers more than maxWireBody of what a peer
// (or anyone who can reach the listener) sends. A request over it is 413; a
// reply over it is a typed error, which for a fill is a miss; a body of
// undeclared length is read no further than the cap.
func TestWireBodyCap(t *testing.T) {
	node := frameNode(t, oversizeDoer{t})
	for _, path := range []string{"/internal/v1/offer?key=k", "/internal/v1/complete", "/internal/v1/ship", "/internal/v1/gossip", "/internal/v1/join", "/internal/v1/handoff", "/internal/v1/handoff-journal"} {
		r := httptest.NewRequest(http.MethodPost, path, unreadBody{t})
		r.ContentLength = maxWireBody + 1
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d for a body declared over the cap, want 413", path, rec.Code)
		}
	}

	var tooLarge *http.MaxBytesError
	if _, err := node.call(context.Background(), http.MethodGet, "node-b", "/x", nil, new(service.Result)); !errors.As(err, &tooLarge) || tooLarge.Limit != maxWireBody {
		t.Fatalf("reply declared over the cap: err %v, want *http.MaxBytesError", err)
	}
	if got := node.fill(context.Background(), keyOwnedByPeer(t, node), &service.Request{}); got != nil {
		t.Fatalf("fill served %+v out of an oversized reply", got)
	}
	if st := node.Stats(); st.FillMisses != 1 || st.CorruptPayloads != 0 {
		t.Fatalf("oversized fill reply: %+v, want one miss and no corruption report", st)
	}

	// Undeclared length (chunked): the limit itself is fine, one byte more is
	// not, and an endless body is abandoned at limit+1 bytes.
	const limit = 64
	if body, err := readBody(bytes.NewReader(make([]byte, limit)), -1, limit); err != nil || len(body) != limit {
		t.Fatalf("a body of exactly the limit: %d bytes, err %v", len(body), err)
	}
	endless := &countingReader{}
	if _, err := readBody(endless, -1, limit); !errors.As(err, &tooLarge) {
		t.Fatalf("endless body: err %v, want *http.MaxBytesError", err)
	}
	if endless.n != limit+1 {
		t.Fatalf("endless body: %d bytes read, want the limit plus the one that proves it exceeded", endless.n)
	}
}

// TestRoutesStateMethods: the mux answers a request that names a route
// with the wrong method (405), or a route this node does not serve (404),
// before any handler reads the body — so a request without a checksum is
// never counted as corruption.
func TestRoutesStateMethods(t *testing.T) {
	full := frameNode(t, &replayDoer{}) // clustered, and a standby
	solo, err := Open(Config{Self: "solo", Service: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { solo.Close(context.Background()) })

	for _, tc := range []struct {
		node         *Node
		method, path string
		want         int
	}{
		{full, http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{full, http.MethodPost, "/readyz", http.StatusMethodNotAllowed},
		{full, http.MethodPost, "/internal/v1/result?key=k", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/offer?key=k", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/steal", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/complete", http.StatusMethodNotAllowed},
		{full, http.MethodPut, "/internal/v1/handoff", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/handoff-journal", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/ship", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/gossip", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/internal/v1/join", http.StatusMethodNotAllowed},
		{full, http.MethodPost, "/internal/v1/digest", http.StatusMethodNotAllowed},
		{full, http.MethodGet, "/v1/cluster/drain", http.StatusMethodNotAllowed},
		{full, http.MethodPost, "/v1/cluster/stats", http.StatusMethodNotAllowed},
		{solo, http.MethodPost, "/internal/v1/gossip", http.StatusNotFound},
		{solo, http.MethodGet, "/internal/v1/digest", http.StatusNotFound},
		{solo, http.MethodPost, "/internal/v1/join", http.StatusNotFound},
		{solo, http.MethodPost, "/internal/v1/ship", http.StatusNotFound},
		{solo, http.MethodGet, "/internal/v1/offer?key=k", http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		tc.node.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, bytes.NewReader([]byte("{}"))))
		if rec.Code != tc.want {
			t.Errorf("%s %s on %s: status %d, want %d", tc.method, tc.path, tc.node.cfg.Self, rec.Code, tc.want)
		}
	}
	for _, n := range []*Node{full, solo} {
		if got := n.Stats().CorruptPayloads; got != 0 {
			t.Errorf("%s: corrupt_payloads %d, want 0", n.cfg.Self, got)
		}
		if got := n.Service().Snapshot().CorruptionEvents; got != 0 {
			t.Errorf("%s: corruption_events %d, want 0", n.cfg.Self, got)
		}
	}
}

type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	r.n += len(p)
	return len(p), nil
}

// BenchmarkFillRoundTrip is one peer fill end to end between two LoopNet
// nodes: node-a's Fill hook fetching one warmed key from its owner — ring
// lookup, the hedged exchange, frame encode and decode, both checksum checks.
// B/op and allocs/op include LoopNet's goroutine and recorder per request;
// reply-B is the fill reply's body. `make bench-smoke` runs it once per push.
func BenchmarkFillRoundTrip(b *testing.B) {
	net := NewLoopNet()
	peers := []string{"node-a", "node-b"}
	a := tnode(b, net, "node-a", peers, func(c *Config) { c.RepairInterval = -1 })
	owner := tnode(b, net, "node-b", peers, func(c *Config) { c.RepairInterval = -1 })
	defer a.Close(context.Background())
	defer owner.Close(context.Background())
	req, key := keyOwnedBy(b, a, srcOf(b, "ocean"), false)
	waitResult(b, owner.Service(), mustSubmit(b, owner, req))
	res, _ := owner.Service().ResultByKey(key)
	body, _, _ := encode(res)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.fill(ctx, key, &req) == nil {
			b.Fatal("fill missed a warmed owner")
		}
	}
	b.ReportMetric(float64(len(body)), "reply-B")
}
