// Deadlock: a textbook ABBA lock-order inversion, terminated by the
// runtime's deadlock detector instead of hanging forever.
//
// Thread 0 locks A then B; thread 1 locks B then A. The logical clocks are
// arranged so both threads hold their first lock before either requests its
// second — the deadlock is guaranteed, not timing-dependent. The runtime's
// wait-for graph sees the instant every live thread is blocked and Run
// returns a *detlock.DeadlockError naming the exact cycle with every
// thread's frozen clock. Because blocking events are turn-gated, the report
// is byte-identical on every run — a deadlock here is a reproducible
// artifact you can diff, not a flaky hang.
//
//	go run ./examples/deadlock
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	detlock "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatalf("deadlock example: %v", err)
	}
}

// run provokes the ABBA deadlock and prints the runtime's report.
func run(w io.Writer) error {
	rt := detlock.New(2)
	a := rt.NewMutex() // mutex#0
	b := rt.NewMutex() // mutex#1

	err := rt.Run(func(t *detlock.Thread) {
		if t.ID() == 0 {
			t.Tick(10)
			a.Lock(t)
			t.Tick(10)
			b.Lock(t) // blocks: thread 1 holds B
			b.Unlock(t)
			a.Unlock(t)
		} else {
			t.Tick(15)
			b.Lock(t)
			t.Tick(5)
			a.Lock(t) // blocks: thread 0 holds A
			a.Unlock(t)
			b.Unlock(t)
		}
	})

	if !errors.Is(err, detlock.ErrDeadlock) {
		return fmt.Errorf("expected a deadlock, got: %v", err)
	}
	fmt.Fprint(w, detlock.FormatFailure(err))

	var dd *detlock.DeadlockError
	errors.As(err, &dd)
	fmt.Fprintf(w, "\ncycle has %d edges; identical on every run\n", len(dd.Cycle))
	return nil
}
