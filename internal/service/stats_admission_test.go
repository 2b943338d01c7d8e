package service

import (
	"context"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/detrand"
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

// admissionModel is the admission gates' contract as a reference, in the
// order Submit applies them: a request whose bytes would take the in-flight
// sum past the limit is overloaded, a draining node refuses, a full queue
// refuses, and anything else is queued with its weight. A lent job leaves
// the queue but keeps its weight until it finishes; one handed back
// re-enters the queue.
type admissionModel struct {
	maxBytes, inflight int64
	depth, queued      int
	draining           bool
	rejects            map[string]int64
}

func (m *admissionModel) submit(size int64) string {
	cause := ""
	switch {
	case m.inflight+size > m.maxBytes:
		cause = "overloaded"
	case m.draining:
		cause = "draining"
	case m.queued == m.depth:
		cause = "queue_full"
	default:
		m.queued++
		m.inflight += size
		return ""
	}
	m.rejects[cause]++
	return cause
}

// TestAdmissionAgainstModel runs 100 seeded sequences of 60 steps against a
// service and against admissionModel. The service's one worker is parked on
// a first job, so nothing leaves the queue but what the test moves: a step
// is a submission of a random size, a steal, a lent job completed or handed
// back, or the start of a drain. Every submission's verdict, and after every
// step the queue depth, the in-flight bytes and the rejections by cause,
// must agree with the model.
func TestAdmissionAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := detrand.New(seed, 17)
		cfg := Config{Workers: 1, QueueDepth: 1 + rng.IntN(4), MaxInflightBytes: int64(len(fastProgram)) + 64, StealReclaim: time.Hour}
		parked, release := parkFirst(&cfg)
		s := New(cfg)
		if _, err := s.Submit(Request{Source: fastProgram}); err != nil {
			t.Fatal(err)
		}
		parked()
		m := &admissionModel{maxBytes: cfg.MaxInflightBytes, inflight: int64(len(fastProgram)), depth: cfg.QueueDepth, rejects: map[string]int64{}}
		size := map[string]int64{} // accepted job → its weight
		var lent []string
		for step := 0; step < 60; step++ {
			switch op := rng.IntN(20); {
			case op < 10:
				n := int64(1 + rng.IntN(24))
				id, err := s.Submit(Request{Source: strings.Repeat("x", int(n))})
				if want := m.submit(n); Classify(err) != want {
					t.Fatalf("seed %d step %d: submit of %d bytes: %v, model %q", seed, step, n, err, want)
				}
				size[id] = n
			case op < 14:
				n := rng.IntN(3)
				got := s.StealQueued(n)
				if want := min(n, m.queued); len(got) != want {
					t.Fatalf("seed %d step %d: stole %d of %d, model %d", seed, step, len(got), n, want)
				}
				m.queued -= len(got)
				for _, sj := range got {
					lent = append(lent, sj.ID)
				}
			case op < 19 && len(lent) > 0:
				k := rng.IntN(len(lent))
				id := lent[k]
				lent = append(lent[:k], lent[k+1:]...)
				if rng.IntN(3) == 0 && m.queued < m.depth {
					s.CompleteStolen(id, nil) // handed back: queued again
					m.queued++
				} else {
					s.CompleteStolen(id, &Result{ScheduleHash: "0000000000000000"})
					m.inflight -= size[id]
				}
			case op == 19:
				s.StartDrain()
				m.draining = true
			}
			snap := s.Snapshot()
			if snap.QueueDepth != m.queued || snap.InflightBytes != m.inflight || !maps.Equal(snap.RejectByCause, m.rejects) {
				t.Fatalf("seed %d step %d: queue %d, in-flight %d B, rejects %v; model %d, %d B, %v",
					seed, step, snap.QueueDepth, snap.InflightBytes, snap.RejectByCause, m.queued, m.inflight, m.rejects)
			}
		}
		release()
		s.Kill()
		for _, id := range lent {
			s.CompleteStolen(id, nil) // after shutdown: failed, left to recovery
		}
	}
}
