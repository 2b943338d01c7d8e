package det

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// xorshift is a tiny deterministic per-thread PRNG for tick amounts; jitter
// must never feed it.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// runContended executes a contended increment workload and returns the
// acquisition sequence (thread ids in acquisition order) and the final
// counter. jitterSeed seeds jitter, which perturbs physical timing only.
func runContended(nThreads, iters int, jitterSeed int64) ([]int, int64) {
	rt := New(nThreads)
	mu := rt.NewMutex()
	var seq []int
	mu.SetObserver(func(tid int, _ int64) { seq = append(seq, tid) })
	var counter int64
	rt.Run(func(t *Thread) {
		prng := xorshift(uint64(t.ID())*2654435761 + 12345)
		// Physical perturbation: must not affect the schedule.
		j := jitter{seed: jitterSeed, storm: 4, sleep: 50 * time.Microsecond}.on(t)
		for i := 0; i < iters; i++ {
			// Deterministic logical work, different per thread and iteration.
			t.Tick(int64(prng.next()%97) + 1)
			j.lock(mu)
			counter++
			j.unlock(mu)
		}
	})
	return seq, counter
}

func TestMutexMutualExclusion(t *testing.T) {
	_, counter := runContended(4, 200, 1)
	if counter != 800 {
		t.Fatalf("counter = %d, want 800 (lost updates => broken exclusion)", counter)
	}
}

func TestDeterministicAcquisitionOrder(t *testing.T) {
	ref, _ := runContended(4, 150, 0)
	if len(ref) != 600 {
		t.Fatalf("acquisitions = %d, want 600", len(ref))
	}
	for seed := int64(1); seed <= 8; seed++ {
		got, _ := runContended(4, 150, seed)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d acquisitions, want %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: acquisition %d by thread %d, reference says %d",
					seed, i, got[i], ref[i])
			}
		}
	}
}

func TestAcquisitionClocksDeterministic(t *testing.T) {
	run := func(seed int64) []int64 {
		rt := New(3)
		mu := rt.NewMutex()
		var clocks []int64
		mu.SetObserver(func(_ int, c int64) { clocks = append(clocks, c) })
		rt.Run(func(th *Thread) {
			j := jitter{seed: seed, storm: 4, sleep: 30 * time.Microsecond}.on(th)
			for i := 0; i < 100; i++ {
				th.Tick(int64((th.ID()+1)*3 + i%7))
				j.lock(mu)
				j.unlock(mu)
			}
		})
		return clocks
	}
	ref := run(0)
	for seed := int64(1); seed <= 5; seed++ {
		got := run(seed)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d clocks vs %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: clock[%d] = %d, want %d", seed, i, got[i], ref[i])
			}
		}
	}
}

func TestLowestClockWinsUnderContention(t *testing.T) {
	// Two threads race for the first acquisition; the one with the lower
	// pre-lock clock must always win, regardless of startup timing.
	for trial := 0; trial < 20; trial++ {
		rt := New(2)
		mu := rt.NewMutex()
		var first atomic.Int64
		first.Store(-1)
		rt.Run(func(th *Thread) {
			if th.ID() == 0 {
				t0 := 1000 // high clock: must lose
				th.Tick(int64(t0))
			} else {
				th.Tick(10)
				// Arrive physically late despite the lower clock.
				time.Sleep(200 * time.Microsecond)
			}
			mu.Lock(th)
			first.CompareAndSwap(-1, int64(th.ID()))
			mu.Unlock(th)
		})
		if first.Load() != 1 {
			t.Fatalf("trial %d: thread 0 (clock 1000) acquired before thread 1 (clock 10)", trial)
		}
	}
}

func TestTieBreakByThreadID(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	var first atomic.Int64
	first.Store(-1)
	rt.Run(func(th *Thread) {
		th.Tick(500) // identical clocks
		mu.Lock(th)
		first.CompareAndSwap(-1, int64(th.ID()))
		mu.Unlock(th)
	})
	if first.Load() != 0 {
		t.Fatalf("tie must go to the lower thread id, got %d", first.Load())
	}
}

func TestTryLock(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	var succ, fail atomic.Int64
	rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			mu.Lock(th)
			th.Tick(10000) // hold while the other thread tries
			// Wait until thread 1 has attempted.
			for fail.Load() == 0 && succ.Load() == 0 {
				time.Sleep(10 * time.Microsecond)
			}
			mu.Unlock(th)
		} else {
			th.Tick(50)
			// The answer is decided at the thread's turn, not by timing.
			if (jitter{seed: 1, storm: 8, sleep: 30 * time.Microsecond}).on(th).tryLock(mu) {
				succ.Add(1)
				mu.Unlock(th)
			} else {
				fail.Add(1)
			}
		}
	})
	if fail.Load() != 1 || succ.Load() != 0 {
		t.Fatalf("TryLock on held mutex: succ=%d fail=%d", succ.Load(), fail.Load())
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	rt := New(4)
	bar := rt.NewBarrier(4)
	clocks := make([]int64, 4)
	rt.Run(func(th *Thread) {
		th.Tick(int64(100 * (th.ID() + 1)))
		bar.Wait(th)
		clocks[th.ID()] = th.Clock()
	})
	// All clocks equal max(100,200,300,400)+1 = 401.
	for id, c := range clocks {
		if c != 401 {
			t.Fatalf("thread %d clock after barrier = %d, want 401", id, c)
		}
	}
	if bar.Cycles() != 1 {
		t.Fatalf("cycles = %d", bar.Cycles())
	}
}

func TestBarrierCyclic(t *testing.T) {
	rt := New(3)
	bar := rt.NewBarrier(3)
	const rounds = 10
	var order [rounds][]int
	mu := rt.NewMutex()
	rt.Run(func(th *Thread) {
		for r := 0; r < rounds; r++ {
			th.Tick(int64(th.ID()*7 + r + 1))
			mu.Lock(th)
			order[r] = append(order[r], th.ID())
			mu.Unlock(th)
			bar.Wait(th)
		}
	})
	if bar.Cycles() != rounds {
		t.Fatalf("cycles = %d, want %d", bar.Cycles(), rounds)
	}
	for r := range order {
		if len(order[r]) != 3 {
			t.Fatalf("round %d saw %d arrivals", r, len(order[r]))
		}
	}
}

func TestNestedLocksNoDeadlock(t *testing.T) {
	// Thread 0 takes A then B; thread 1 waits on A with a frozen low clock.
	// Waiter exclusion must let thread 0 acquire B.
	done := make(chan struct{})
	go func() {
		rt := New(2)
		a := rt.NewMutex()
		b := rt.NewMutex()
		rt.Run(func(th *Thread) {
			if th.ID() == 0 {
				th.Tick(100)
				a.Lock(th)
				th.Tick(100000) // clock far above the waiter's
				b.Lock(th)
				b.Unlock(th)
				a.Unlock(th)
			} else {
				th.Tick(10)
				a.Lock(th) // frozen at 10 while waiting
				a.Unlock(th)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("deadlock: nested locks with a frozen waiter")
	}
}

func TestWaiterResumeClock(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	var resumed int64
	rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Tick(10)
			mu.Lock(th) // acquires first (clock 10 vs 20)
			th.Tick(500)
			mu.Unlock(th)
		} else {
			th.Tick(20)
			mu.Lock(th) // must wait; clock frozen at 20, resumes at 20+1
			resumed = th.Clock()
			mu.Unlock(th)
		}
	})
	// Kendo semantics: the waiter's clock pauses while blocked and resumes
	// where it froze, plus the acquisition tick: 20 + 1 = 21 — independent
	// of how long the holder kept the lock.
	if resumed != 21 {
		t.Fatalf("waiter resume clock = %d, want 21", resumed)
	}
}

func TestSpawnJoin(t *testing.T) {
	rt := New(1)
	var childClock, parentAfter int64
	var childID int
	rt.Run(func(th *Thread) {
		th.Tick(41)
		child := th.Spawn(func(c *Thread) {
			childID = c.ID()
			c.Tick(1000)
			childClock = c.Clock()
		})
		th.Join(child)
		parentAfter = th.Clock()
	})
	if childID != 1 {
		t.Fatalf("child id = %d, want 1", childID)
	}
	// Child starts at parent's 41+1 = 42, ticks 1000 -> 1042.
	if childClock != 1042 {
		t.Fatalf("child clock = %d, want 1042", childClock)
	}
	// Parent: 41, spawn tick -> 42, join -> max(42, 1042)+1 = 1043.
	if parentAfter != 1043 {
		t.Fatalf("parent clock after join = %d, want 1043", parentAfter)
	}
}

func TestCondProducerConsumer(t *testing.T) {
	run := func(seed int64) []int {
		rt := New(2)
		mu := rt.NewMutex()
		cv := rt.NewCond(mu)
		queue := 0
		var consumed []int
		rt.Run(func(th *Thread) {
			if th.ID() == 0 { // producer
				j := jitter{seed: seed, storm: 4, sleep: 20 * time.Microsecond}.on(th)
				for i := 0; i < 50; i++ {
					th.Tick(7)
					j.lock(mu)
					queue++
					cv.Signal(th)
					j.unlock(mu)
				}
			} else { // consumer
				for got := 0; got < 50; {
					th.Tick(3)
					mu.Lock(th)
					for queue == 0 {
						cv.Wait(th)
					}
					queue--
					got++
					consumed = append(consumed, got)
					mu.Unlock(th)
				}
			}
		})
		return consumed
	}
	ref := run(0)
	if len(ref) != 50 {
		t.Fatalf("consumed %d items", len(ref))
	}
	got := run(99)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("cond schedule diverged at %d", i)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	rt := New(4)
	mu := rt.NewMutex()
	cv := rt.NewCond(mu)
	ready := false
	var woke atomic.Int64
	rt.Run(func(th *Thread) {
		th.Tick(int64(th.ID() + 1))
		if th.ID() == 0 {
			// Give waiters a chance to block, then broadcast.
			time.Sleep(time.Millisecond)
			th.Tick(100000)
			mu.Lock(th)
			ready = true
			cv.Broadcast(th)
			mu.Unlock(th)
		} else {
			mu.Lock(th)
			for !ready {
				cv.Wait(th)
			}
			woke.Add(1)
			mu.Unlock(th)
		}
	})
	if woke.Load() != 3 {
		t.Fatalf("woke = %d, want 3", woke.Load())
	}
}

func TestAllocatorDeterministic(t *testing.T) {
	run := func() []int64 {
		rt := New(3)
		al := rt.NewAllocator(4096)
		var mu = rt.NewMutex()
		var offsets []int64
		rt.Run(func(th *Thread) {
			local := make([]int64, 0, 20)
			for i := 0; i < 20; i++ {
				th.Tick(int64(th.ID()*11 + i + 1))
				off := al.Alloc(th, int64(th.ID()+1)*8)
				if off < 0 {
					t.Errorf("arena exhausted")
					return
				}
				local = append(local, off)
				if i%3 == 2 {
					al.Free(th, local[0])
					local = local[1:]
				}
			}
			mu.Lock(th)
			offsets = append(offsets, local...)
			mu.Unlock(th)
			for _, off := range local {
				al.Free(th, off)
			}
		})
		return offsets
	}
	ref := run()
	got := run()
	if len(ref) != len(got) {
		t.Fatalf("allocation counts differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("allocation %d: offset %d vs %d", i, got[i], ref[i])
		}
	}
}

func TestAllocatorCoalesce(t *testing.T) {
	rt := New(1)
	al := rt.NewAllocator(100)
	rt.Run(func(th *Thread) {
		a := al.Alloc(th, 40)
		b := al.Alloc(th, 40)
		if a != 0 || b != 40 {
			t.Errorf("offsets a=%d b=%d", a, b)
		}
		if al.Alloc(th, 40) != -1 {
			t.Errorf("over-allocation should fail")
		}
		al.Free(th, a)
		al.Free(th, b)
		// After coalescing, an 80-word block must fit again.
		if got := al.Alloc(th, 80); got != 0 {
			t.Errorf("coalesced alloc = %d, want 0", got)
		}
	})
}

func TestRuntimeAccounting(t *testing.T) {
	rt := New(2)
	mu := rt.NewMutex()
	rt.Run(func(th *Thread) {
		th.Tick(int64(th.ID() + 1))
		mu.Lock(th)
		mu.Unlock(th)
	})
	if rt.Acquisitions() != 2 {
		t.Fatalf("acquisitions = %d, want 2", rt.Acquisitions())
	}
	if mu.Acquisitions() != 2 {
		t.Fatalf("mutex acquisitions = %d", mu.Acquisitions())
	}
	if rt.NumThreads() != 2 {
		t.Fatalf("threads = %d", rt.NumThreads())
	}
}

func TestUnlockNotHeldPanics(t *testing.T) {
	rt := New(1)
	mu := rt.NewMutex()
	rt.Run(func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Errorf("unlock of unheld mutex must panic")
			}
		}()
		mu.Unlock(th)
	})
}

func TestThreadString(t *testing.T) {
	rt := New(1)
	rt.Run(func(th *Thread) {
		th.Tick(7)
		if got := th.String(); got != fmt.Sprintf("det.Thread(id=0 clock=7)") {
			t.Errorf("String = %q", got)
		}
	})
}
