package service

import (
	"context"
	"testing"
	"time"
)

// plugProgram spins ~1M iterations: long enough to pin the only worker
// while a test fills the queue behind it, short enough to drain promptly.
const plugProgram = `
module plug

func main() regs 4 {
entry:
  r0 = const 0
  r1 = const 1000000
  jmp loop
loop:
  r2 = lt r0, r1
  br r2, body, exit
body:
  r0 = add r0, 1
  jmp loop
exit:
  ret r0
}
`

// fastProgram is a trivial job used to fill the queue.
const fastProgram = `
module fast

func main() regs 2 {
entry:
  r0 = tid
  ret r0
}
`

// TestQueueHighWaterAndRejectCauses: the queue-depth high-water mark and the
// per-cause rejection counters expose admission behavior directly. One
// worker is pinned by a slow plug job; the queue is filled to capacity
// (high water = capacity), overflowed (queue_full counts), and poked with an
// invalid request (misuse counts); a submission refused by a draining node
// is the node's doing and counts as draining, not as the client's misuse.
func TestQueueHighWaterAndRejectCauses(t *testing.T) {
	const depth = 4
	s := New(Config{Workers: 1, QueueDepth: depth})
	plugID, err := s.Submit(Request{Source: plugProgram, Entry: "main", Threads: 1})
	if err != nil {
		t.Fatalf("submit plug: %v", err)
	}
	// Wait until the worker has dequeued the plug so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := s.Lookup(plugID)
		if err != nil {
			t.Fatalf("lookup plug: %v", err)
		}
		if v.Status != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plug never started running")
		}
		time.Sleep(time.Millisecond)
	}

	var accepted []string
	for i := 0; i < depth; i++ {
		id, err := s.Submit(Request{Source: fastProgram, Entry: "main", Threads: 1})
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		accepted = append(accepted, id)
	}
	const overflow = 3
	for i := 0; i < overflow; i++ {
		if _, err := s.Submit(Request{Source: fastProgram, Entry: "main", Threads: 1}); Classify(err) != "queue_full" {
			t.Fatalf("overflow %d: Classify = %q (%v), want queue_full", i, Classify(err), err)
		}
	}
	if _, err := s.Submit(Request{}); Classify(err) != "misuse" {
		t.Fatalf("invalid request: Classify = %q, want misuse", Classify(err))
	}

	snap := s.Snapshot()
	if snap.QueueHighWater != depth {
		t.Fatalf("QueueHighWater = %d, want %d", snap.QueueHighWater, depth)
	}
	if got := snap.RejectByCause["queue_full"]; got != overflow {
		t.Fatalf("RejectByCause[queue_full] = %d, want %d", got, overflow)
	}
	if got := snap.RejectByCause["misuse"]; got != 1 {
		t.Fatalf("RejectByCause[misuse] = %d, want 1", got)
	}
	if want := int64(overflow + 1); snap.JobsRejected != want {
		t.Fatalf("JobsRejected = %d, want %d (sum of causes)", snap.JobsRejected, want)
	}

	// Every accepted job must still complete — rejections shed load, they
	// never leak into accepted work.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range append([]string{plugID}, accepted...) {
		if _, err := s.Wait(ctx, id); err != nil {
			t.Fatalf("accepted job %s failed: %v", id, err)
		}
	}

	s.StartDrain()
	if _, err := s.Submit(Request{Source: fastProgram, Entry: "main", Threads: 1}); Classify(err) != "draining" {
		t.Fatalf("submit while draining: Classify = %q (%v), want draining", Classify(err), err)
	}
	snap = s.Snapshot()
	if got := snap.RejectByCause["draining"]; got != 1 {
		t.Fatalf("RejectByCause[draining] = %d, want 1", got)
	}
	if got := snap.RejectByCause["misuse"]; got != 1 {
		t.Fatalf("RejectByCause[misuse] = %d after a draining rejection, want it still 1", got)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}
