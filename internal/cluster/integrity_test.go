package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/service"
)

// get issues one GET through the net from `from` to `to` and returns the
// response body (or the transport error).
func get(t *testing.T, net *LoopNet, from, to, path string) ([]byte, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://"+to+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := net.Client(from).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestLoopNetOneWayPartition: cutting a→b fails a's requests to b outright,
// while b's requests to a are *delivered* — the handler runs, its side effects
// land — but the response dies crossing the severed reverse path. That
// asymmetry (request delivered, ack lost) is the fault symmetric partition
// models cannot express.
func TestLoopNetOneWayPartition(t *testing.T) {
	net := NewLoopNet()
	var hits atomic.Int64
	net.Register("a", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("from-a"))
	}))
	net.Register("b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("from-b"))
	}))

	net.PartitionOneWay("a", "b")

	if _, err := get(t, net, "a", "b", "/x"); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("a→b across the cut: err %v, want partition", err)
	}
	before := hits.Load()
	_, err := get(t, net, "b", "a", "/x")
	if err == nil || !strings.Contains(err.Error(), "response lost") {
		t.Fatalf("b→a with severed reverse path: err %v, want ack-lost", err)
	}
	if hits.Load() != before+1 {
		t.Fatal("ack-lost request did not reach the handler (side effects must still happen)")
	}

	net.Heal("a", "b")
	if body, err := get(t, net, "a", "b", "/x"); err != nil || string(body) != "from-b" {
		t.Fatalf("healed a→b: body %q err %v", body, err)
	}
}

// TestLoopNetFlakeDeterministic: the same (rate, seed) produces the same
// drop pattern on two independent networks, and rate 0 clears the flake.
func TestLoopNetFlakeDeterministic(t *testing.T) {
	pattern := func() []bool {
		net := NewLoopNet()
		net.Register("b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		}))
		net.Flake("a", "b", 0.5, 77)
		var out []bool
		for i := 0; i < 40; i++ {
			_, err := get(t, net, "a", "b", "/x")
			out = append(out, err == nil)
		}
		return out
	}
	p1, p2 := pattern(), pattern()
	if fmt.Sprint(p1) != fmt.Sprint(p2) {
		t.Fatalf("same flake seed produced different drop patterns:\n%v\n%v", p1, p2)
	}
	dropped := 0
	for _, ok := range p1 {
		if !ok {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(p1) {
		t.Fatalf("flake at rate 0.5 dropped %d/%d requests", dropped, len(p1))
	}

	net := NewLoopNet()
	net.Register("b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }))
	net.Flake("a", "b", 0.9, 77)
	net.Flake("a", "b", 0, 77) // rate 0 clears
	for i := 0; i < 20; i++ {
		if _, err := get(t, net, "a", "b", "/x"); err != nil {
			t.Fatalf("cleared flake still dropping: %v", err)
		}
	}
}

// TestLoopNetCorruptResponsesDetected: with response corruption at rate 1,
// every body is damaged in exactly one bit, headers (and thus the checksum
// header) survive intact, and verifySum flags every response as a typed
// corruption. Same seed → same damaged bytes.
func TestLoopNetCorruptResponsesDetected(t *testing.T) {
	payload := []byte(`{"answer":42,"padding":"xxxxxxxxxxxxxxxx"}`)
	run := func() [][]byte {
		net := NewLoopNet()
		net.Register("b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			setSum(w.Header(), payload)
			w.Write(payload)
		}))
		net.CorruptResponses("b", "a", 1.0, 99)
		var bodies [][]byte
		for i := 0; i < 8; i++ {
			req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://b/x", nil)
			resp, err := net.Client("a").Do(req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if bytes.Equal(body, payload) {
				t.Fatalf("request %d: corruption at rate 1 left the body intact", i)
			}
			if resp.Header.Get(sumHeader) == "" {
				t.Fatalf("request %d: corruption damaged the headers", i)
			}
			err = verifySum(resp.Header, body, "test")
			if !errors.Is(err, diag.ErrCorruption) {
				t.Fatalf("request %d: verifySum = %v, want ErrCorruption", i, err)
			}
			bodies = append(bodies, body)
		}
		return bodies
	}
	b1, b2 := run(), run()
	for i := range b1 {
		if !bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("same corruption seed produced different bytes at request %d", i)
		}
	}
}

// TestLoopNetLatency: a latency link delays delivery deterministically and a
// request whose context expires first is abandoned with the context error.
func TestLoopNetLatency(t *testing.T) {
	net := NewLoopNet()
	net.Register("b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }))
	net.SetLatency("a", "b", 20*time.Millisecond)

	start := time.Now()
	if _, err := get(t, net, "a", "b", "/x"); err != nil {
		t.Fatalf("latency link failed the request: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency link delivered after %v, want ≥20ms", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://b/x", nil)
	if _, err := net.Client("a").Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context on latency link: err %v, want deadline exceeded", err)
	}
}

// TestShipBatchCorruptionRejected: a shipped batch whose lines fail their
// checksum is refused before any byte lands in the standby journal — 409 to
// the shipper (riding the snapshot-resync path), counted, reported — and the
// honest shipper recovers by resyncing.
func TestShipBatchCorruptionRejected(t *testing.T) {
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
	ctx := context.Background()
	defer standby.Close(ctx)
	defer primary.Close(ctx)

	id := mustSubmit(t, primary, service.Request{Source: srcOf(t, "ocean")})
	waitResult(t, primary.Service(), id)
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("honest flush: sent %d, err %v", sent, err)
	}

	// A tampered batch: plausible epoch/seq continuation, lines that do not
	// match the declared checksum.
	batch := shipBatch{
		From:  "evil",
		Epoch: 1,
		Seq:   999,
		Lines: [][]byte{[]byte("{\"type\":\"submitted\",\"id\":\"fake\"}\n")},
	}
	batch.Sum = sumLines(batch.Lines) ^ 0xdeadbeef
	body, _ := json.Marshal(&batch)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "http://standby/internal/v1/ship", bytes.NewReader(body))
	setSum(req.Header, body) // the body arrived intact; its lines are what lie
	resp, err := net.Client("evil").Do(req)
	if err != nil {
		t.Fatalf("tampered ship POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("tampered batch got status %d, want 409", resp.StatusCode)
	}
	stats := standby.Stats()
	if stats.ShipCorrupt != 1 || stats.CorruptPayloads != 1 {
		t.Fatalf("corruption counters = ship %d / payloads %d, want 1/1", stats.ShipCorrupt, stats.CorruptPayloads)
	}
	if standby.Service().Snapshot().CorruptionEvents == 0 {
		t.Fatal("standby service never heard about the corrupt batch")
	}

	// The honest shipper keeps working: its next flush (snapshot or
	// incremental) is accepted and the shipped journal is promotable.
	id2 := mustSubmit(t, primary, service.Request{Source: srcOf(t, "ocean"), PerturbSeed: 9})
	want := waitResult(t, primary.Service(), id2).Core()
	if _, err := primary.ShipFlush(ctx); err != nil {
		// One 409 is allowed (gap repair); the retry must land.
		if _, err := primary.ShipFlush(ctx); err != nil {
			t.Fatalf("post-corruption flush: %v", err)
		}
	}
	if err := standby.Close(ctx); err != nil {
		t.Fatalf("standby close: %v", err)
	}
	svc, err := service.Open(service.Config{JournalPath: shipPath, Workers: 2})
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer svc.Close(ctx)
	res := waitResult(t, svc, id2)
	if res.Core() != want {
		t.Fatalf("takeover core %s, want %s", res.Core(), want)
	}
	if n := svc.Snapshot().JournalJobs; n != 2 {
		t.Fatalf("takeover journal holds %d jobs, want 2 (the fake record must not be among them)", n)
	}
}

// TestPeerQuarantineReadmission: a quarantined peer is down for fill/steal
// purposes and re-enters only after `threshold` *consecutive* clean probes —
// unlike an ordinarily-down peer, which one success readmits.
func TestPeerQuarantineReadmission(t *testing.T) {
	net := NewLoopNet()
	net.Register("b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(healthReport{Status: "ok", Node: "b", QueueDepth: 3, Ready: true})
	}))
	m := newMembership("a", []string{"b"}, net.Client("a"), time.Second, 2)

	if !m.quarantine("b") {
		t.Fatal("first quarantine reported not-new")
	}
	if m.quarantine("b") {
		t.Fatal("repeat quarantine reported new")
	}
	if m.alive("b") {
		t.Fatal("quarantined peer still alive")
	}

	ctx := context.Background()
	m.probeOnce(ctx) // 1 of 2 consecutive successes
	if m.alive("b") {
		t.Fatal("one clean probe readmitted a quarantined peer (threshold is 2)")
	}
	// A failure resets the consecutive-success count.
	net.Partition("a", "b")
	m.probeOnce(ctx)
	net.Heal("a", "b")
	m.probeOnce(ctx) // back to 1 of 2
	if m.alive("b") {
		t.Fatal("success count survived an intervening failure")
	}
	m.probeOnce(ctx) // 2 of 2
	if !m.alive("b") {
		t.Fatal("threshold consecutive successes did not readmit the peer")
	}
	if m.snapshot()["b"].Quarantined {
		t.Fatal("readmitted peer still flagged quarantined")
	}
	if m.depth("b") != 3 {
		t.Fatalf("readmitted peer depth %d, want 3", m.depth("b"))
	}
}
