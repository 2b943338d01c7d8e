package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// Every journal opens with an id reservation, a record that belongs to no
// job. Every image a peer is handed (join bootstrap, journal handoff, the
// shipping resync that restarts the stream) is what the node's recovery would
// open, and ends with it; what a standby follows is the append stream with
// it. Both ends read it with the journal's one scanner.

var reservedType = []byte(`"type":"reserved"`)

// tinySrc keeps a thousand journal records small enough to ship in one batch
// under the race detector.
const tinySrc = `
module tiny

func main() regs 2 {
entry:
  r0 = tid
  ret r0
}
`

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShippedReservationSurvivesTakeover: the resync snapshot carries the
// primary's reservation, a reservation the primary writes after it travels in
// the stream like any record, the standby's file replays clean, and the
// service taking over continues above it — above every id the primary handed
// out, including hits whose records were never shipped.
func TestShippedReservationSurvivesTakeover(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	shipPath := filepath.Join(dir, "shipped.journal")
	standby := tnode(t, net, "standby", nil, func(c *Config) { c.ShipPath = shipPath })
	primary := tnode(t, net, "primary", nil, func(c *Config) {
		c.Standby = "standby"
		c.Service.JournalPath = filepath.Join(dir, "primary.journal")
	})
	ctx := context.Background()
	req := service.Request{Source: tinySrc, Threads: 1}
	issued := map[string]bool{mustSubmit(t, primary, req): true}
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("snapshot flush: sent %d, err %v", sent, err)
	}
	if !bytes.Contains(mustRead(t, shipPath), reservedType) {
		t.Fatal("the resync snapshot does not carry the primary's reservation")
	}

	// 1,100 hits take the ids into the second block of 1,024.
	for range 1100 {
		res, err := primary.Service().Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		issued[res.JobID] = true
	}
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("stream flush: sent %d, err %v", sent, err)
	}
	for range 20 { // never shipped
		res, err := primary.Service().Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		issued[res.JobID] = true
	}
	primary.Kill()
	net.Deregister("primary")
	if err := standby.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mustRead(t, shipPath), reservedType) {
		t.Fatal("the reservation the primary wrote behind the snapshot was not shipped")
	}

	svc, err := service.Open(service.Config{JournalPath: shipPath, Workers: 2, QueueDepth: 4096})
	if err != nil {
		t.Fatalf("Takeover: %v", err)
	}
	defer svc.Close(ctx)
	if snap := svc.Snapshot(); snap.JournalQuarantined != 0 || snap.RecoveredJobs != 1101 {
		t.Fatalf("takeover: %d quarantined lines, %d recovered jobs; want 0 and 1101", snap.JournalQuarantined, snap.RecoveredJobs)
	}
	id, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if issued[id] {
		t.Fatalf("the takeover service issued %s, which the primary had handed out", id)
	}
}

// TestResyncReservationCoversUnshippedHits: hits the primary answered inside
// the block its resync snapshot was taken in, and never shipped, leave no
// record on the standby; the reservation the snapshot ends with is all that
// keeps the service taking over from issuing their ids again.
func TestResyncReservationCoversUnshippedHits(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	shipPath := filepath.Join(dir, "shipped.journal")
	standby := tnode(t, net, "standby", nil, func(c *Config) { c.ShipPath = shipPath })
	primary := tnode(t, net, "primary", nil, func(c *Config) {
		c.Standby = "standby"
		c.Service.JournalPath = filepath.Join(dir, "primary.journal")
	})
	ctx := context.Background()
	req := service.Request{Source: tinySrc, Threads: 1}
	issued := map[string]bool{mustSubmit(t, primary, req): true}
	if sent, err := primary.ShipFlush(ctx); err != nil || sent == 0 {
		t.Fatalf("snapshot flush: sent %d, err %v", sent, err)
	}
	for range 20 { // never shipped
		res, err := primary.Service().Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		issued[res.JobID] = true
	}
	primary.Kill()
	net.Deregister("primary")
	if err := standby.Close(ctx); err != nil {
		t.Fatal(err)
	}

	svc, err := service.Open(service.Config{JournalPath: shipPath, Workers: 2})
	if err != nil {
		t.Fatalf("Takeover: %v", err)
	}
	defer svc.Close(ctx)
	id, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if issued[id] {
		t.Fatalf("the takeover service issued %s, which the primary had handed out", id)
	}
}

// TestJournalHandoffCarriesReservation: the segment a draining node's
// successor checks, accepts and persists is the image the drainer's own
// recovery would open: its jobs, then its reservation last, and it scans
// clean.
func TestJournalHandoffCarriesReservation(t *testing.T) {
	net := NewLoopNet()
	dir := t.TempDir()
	aJournal, bJournal := filepath.Join(dir, "a.journal"), filepath.Join(dir, "b.journal")
	a := dnode(t, net, "node-a", []string{}, func(c *Config) { c.Service.JournalPath = aJournal })
	b := dnode(t, net, "node-b", []string{"node-a"}, func(c *Config) { c.Service.JournalPath = bJournal })
	defer a.Close(context.Background())
	ctx := context.Background()
	if err := b.Join(ctx); err != nil {
		t.Fatalf("join: %v", err)
	}
	src := srcOf(t, "ocean")
	for seed := int64(0); seed < 2; seed++ {
		waitResult(t, b.Service(), mustSubmit(t, b, service.Request{Source: src, PerturbSeed: seed}))
	}
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := a.Stats().JournalHandoffsRecv; got != 1 {
		t.Fatalf("successor accepted %d journal segments, want 1", got)
	}
	if !bytes.Contains(mustRead(t, bJournal), reservedType) {
		t.Fatal("the drainer's own journal holds no reservation")
	}
	side := aJournal + ".handoff-node-b"
	segment := bytes.TrimSuffix(mustRead(t, side), []byte("\n"))
	if last := segment[bytes.LastIndexByte(segment, '\n')+1:]; !bytes.Contains(last, reservedType) {
		t.Fatalf("the handed-off segment ends with %q, not the drainer's reservation", last)
	}
	rep, err := service.ScrubJournal(nil, side, false)
	if err != nil || rep.Quarantined != 0 || rep.TornBytes != 0 || rep.Jobs != 2 || rep.Finished != 2 {
		t.Fatalf("the persisted segment: %+v, %v; want two finished jobs and no damage", rep, err)
	}
}
