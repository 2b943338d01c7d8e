// Replay: producer/consumer with condition variables — the synchronization
// primitive the paper lists as future work (§V), implemented in this
// reproduction as an extension — plus deterministic allocation (the paper's
// malloc shim, §III-B).
//
// A producer allocates work records from a deterministic arena and hands
// them to consumers through a condition variable. The complete event
// history (allocation offsets included) is identical on every run.
//
// The second half demonstrates divergence *detection*: the lock-acquisition
// schedule of a reference run is recorded with RecordSchedule, persisted to
// disk as JSON, reloaded, and the reloaded copy arms SetReplayGuard — a
// faithful re-run replays cleanly against it, and a perturbed re-run (one
// thread's clock profile changed — the observable symptom of a data race
// under weak determinism) terminates with a typed *DivergenceError naming
// the first mismatched acquisition. Persisting the schedule instead of
// holding it in memory is what lets a recorded run be audited or replayed
// by a different process (the service layer's result cache stores schedules
// in the same JSON form).
//
//	go run ./examples/replay
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"

	detlock "repro"
)

const (
	consumers = 3
	items     = 30
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatalf("replay example: %v", err)
	}
}

// run replays the producer/consumer history, then the divergence demo.
func run(w io.Writer) error {
	record := func() []string {
		rt := detlock.New(1 + consumers)
		mu := rt.NewMutex()
		cv := rt.NewCond(mu)
		arena := rt.NewAllocator(4096)

		queue := make([]int64, 0, items)
		produced, consumed := 0, 0
		var history []string

		rt.Run(func(t *detlock.Thread) {
			if t.ID() == 0 { // producer
				for i := 0; i < items; i++ {
					t.Tick(int64(15 + i%4)) // "build the record"
					off := arena.Alloc(t, int64(8+i%8))
					mu.Lock(t)
					queue = append(queue, off)
					produced++
					history = append(history,
						fmt.Sprintf("produce #%d at arena offset %d", i, off))
					cv.Signal(t)
					mu.Unlock(t)
				}
				// Wake everyone for shutdown.
				mu.Lock(t)
				produced = -1
				cv.Broadcast(t)
				mu.Unlock(t)
				return
			}
			// Consumers.
			for {
				t.Tick(9)
				mu.Lock(t)
				for len(queue) == 0 && produced >= 0 {
					cv.Wait(t)
				}
				if len(queue) == 0 {
					mu.Unlock(t)
					return
				}
				off := queue[0]
				queue = queue[1:]
				consumed++
				history = append(history,
					fmt.Sprintf("consume by thread %d from offset %d", t.ID(), off))
				mu.Unlock(t)
				arena.Free(t, off)
			}
		})
		history = append(history, fmt.Sprintf("done: %d consumed", consumed))
		return history
	}

	first := record()
	fmt.Fprintf(w, "event history (%d events), first and last lines:\n", len(first))
	for _, l := range first[:4] {
		fmt.Fprintln(w, "  ", l)
	}
	fmt.Fprintln(w, "   ...")
	fmt.Fprintln(w, "  ", first[len(first)-1])

	for i := 0; i < 8; i++ {
		if !slices.Equal(first, record()) {
			return errors.New("history diverged: determinism violated")
		}
	}
	fmt.Fprintln(w, "8 replays produced the identical history ✓")
	fmt.Fprintln(w)
	return divergenceDemo(w)
}

// divergenceDemo records a reference schedule, replays it cleanly, then
// forces a divergence and prints the typed report.
func divergenceDemo(w io.Writer) error {
	ladder := func(record, guard *detlock.Schedule, perturb bool) error {
		rt := detlock.New(3)
		if record != nil {
			if err := rt.RecordSchedule(record); err != nil {
				return err
			}
		}
		if guard != nil {
			if err := rt.SetReplayGuard(guard); err != nil {
				return err
			}
		}
		mu := rt.NewMutex()
		return rt.Run(func(t *detlock.Thread) {
			for i := 0; i < 4; i++ {
				tick := int64(t.ID() + 1)
				if perturb && t.ID() == 1 && i == 2 {
					// The stand-in for a data race: thread 1's clock profile
					// changes mid-run, so its acquisitions land elsewhere in
					// the global order.
					tick += 5
				}
				t.Tick(tick)
				mu.Lock(t)
				t.Tick(1)
				mu.Unlock(t)
			}
		})
	}

	ref := detlock.NewSchedule()
	if err := ladder(ref, nil, false); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	fmt.Fprintf(w, "reference schedule recorded: %d acquisitions, hash %016x\n", ref.Len(), ref.Hash())

	// Persist the schedule to disk and replay against the reloaded copy — a
	// different process could do the same with the file alone.
	path := filepath.Join(os.TempDir(), "detlock-replay-schedule.json")
	data, err := json.Marshal(ref)
	if err != nil {
		return fmt.Errorf("marshal schedule: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("persist schedule: %w", err)
	}
	loaded := detlock.NewSchedule()
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, loaded)
	}
	if err != nil {
		return fmt.Errorf("reload schedule: %w", err)
	}
	if loaded.Hash() != ref.Hash() {
		return errors.New("reloaded schedule hash differs")
	}
	fmt.Fprintf(w, "schedule persisted to %s (%d bytes) and reloaded, hash intact ✓\n", path, len(data))

	if err := ladder(nil, loaded, false); err != nil {
		return fmt.Errorf("faithful replay diverged: %w", err)
	}
	fmt.Fprintln(w, "faithful re-run replays the persisted reference cleanly ✓")

	err = ladder(nil, loaded, true)
	if err == nil {
		return errors.New("perturbed run matched the reference")
	}
	fmt.Fprintln(w, "perturbed re-run caught by the replay guard:")
	fmt.Fprintln(w, detlock.FormatFailure(err))
	return nil
}
