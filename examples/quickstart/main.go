// Quickstart: deterministic execution for plain Go goroutines.
//
// Four workers contend for one lock while doing different amounts of work.
// Under sync.Mutex the interleaving — and therefore the event log — varies
// run to run; under detlock the acquisition order is a pure function of the
// logical clocks, so the log is identical on every run (weak determinism,
// the paper's §II).
//
// Run it a few times:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	detlock "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatalf("quickstart example: %v", err)
	}
}

// run prints the acquisition order and checks ten re-runs against it.
func run(w io.Writer) error {
	const (
		threads = 4
		rounds  = 5
	)
	schedule := func() []string {
		rt := detlock.New(threads)
		mu := rt.NewMutex()
		var log []string
		rt.Run(func(t *detlock.Thread) {
			for r := 0; r < rounds; r++ {
				// Deterministic "work": each thread advances its logical
				// clock by a different amount, exactly as the compiler-
				// inserted updates would for different code paths.
				t.Tick(int64(10*(t.ID()+1) + r))
				mu.Lock(t)
				log = append(log, fmt.Sprintf("round %d: thread %d (clock %d)", r, t.ID(), t.Clock()))
				mu.Unlock(t)
			}
		})
		return log
	}

	first := schedule()
	fmt.Fprintln(w, "acquisition order (identical on every run):")
	for _, line := range first {
		fmt.Fprintln(w, " ", line)
	}

	// Prove it: re-run many times and compare.
	for i := 0; i < 10; i++ {
		again := schedule()
		for j := range first {
			if again[j] != first[j] {
				return fmt.Errorf("diverged at %d: %q vs %q", j, again[j], first[j])
			}
		}
	}
	fmt.Fprintln(w, "10 re-runs produced the identical schedule ✓")
	return nil
}
