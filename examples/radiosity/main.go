// Radiosity: the compiler pipeline end to end on the paper's hardest
// workload — a high-lock-frequency task queue.
//
// The program below is written in the textual IR. It is instrumented with
// the DetLock pass at several optimization levels and executed on the
// deterministic multicore simulator, printing the overhead split the way
// the paper's Figure 14 does, plus the list of functions Optimization 1
// clocked and a determinism check.
//
//	go run ./examples/radiosity
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	detlock "repro"
)

const program = `
module mini_radiosity
locks 1
barriers 1
global taskq 8
global patches 1024

; The compute kernel: a loop-free function with balanced branches.
; Optimization 1 will clock it and charge its mean at the call site.
func form_factor(r0) regs 4 {
entry:
  r1 = mul r0, 2654435761
  r2 = and r1, 1
  br r2, bright, dark
bright:
  r3 = mul r1, 3
  r3 = add r3, 17
  r3 = add r3, r0
  r3 = add r3, 5
  ret r3
dark:
  r3 = xor r1, 255
  r3 = add r3, 11
  r3 = sub r3, r0
  r3 = add r3, 7
  ret r3
}

; Each worker pops task indices from the shared queue and integrates the
; kernel result into its patch row.
func main() regs 10 {
entry:
  r0 = tid
  r9 = const 0
  jmp pop
pop:
  lock 0
  r1 = load taskq[0]
  r2 = add r1, 1
  store taskq[0], r2
  unlock 0
  r3 = lt r1, 400
  br r3, work, done
work:
  r4 = call form_factor(r1)
  r5 = and r1, 1023
  r6 = load patches[r5]
  r6 = add r6, r4
  store patches[r5], r6
  r9 = add r9, r4
  jmp pop
done:
  barrier 0
  print r9
  ret r9
}
`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatalf("radiosity example: %v", err)
	}
}

// run simulates the program at each setting and prints the overhead split.
func run(w io.Writer) error {
	m, err := detlock.ParseProgram(program)
	if err != nil {
		return err
	}

	baseline, err := detlock.Simulate(m, detlock.SimConfig{Threads: 4})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline (plain locks, no clocks): %d cycles\n\n", baseline.Cycles)

	for _, cfg := range []struct {
		name string
		opt  detlock.Options
	}{
		{"no optimization", detlock.NoOptimizations()},
		{"all optimizations", detlock.AllOptimizations()},
	} {
		opt := cfg.opt
		clocks, err := detlock.Simulate(m, detlock.SimConfig{Threads: 4, Opt: &opt})
		if err != nil {
			return err
		}
		det, err := detlock.Simulate(m, detlock.SimConfig{Threads: 4, Opt: &opt, Deterministic: true})
		if err != nil {
			return err
		}
		pct := func(c int64) float64 {
			return (float64(c)/float64(baseline.Cycles) - 1) * 100
		}
		fmt.Fprintf(w, "%s:\n", cfg.name)
		fmt.Fprintf(w, "  clock updates executed: %d\n", clocks.ClockUpdates)
		if len(clocks.Clockable) > 0 {
			fmt.Fprintf(w, "  clocked functions: %v\n", clocks.Clockable)
		}
		fmt.Fprintf(w, "  clock insertion overhead:      %5.1f%%\n", pct(clocks.Cycles))
		fmt.Fprintf(w, "  + deterministic execution:     %5.1f%%\n\n", pct(det.Cycles))
	}

	// Weak determinism: the lock schedule is identical across runs.
	opt := detlock.AllOptimizations()
	sched, err := detlock.CheckDeterminism(m, detlock.SimConfig{Threads: 4, Opt: &opt}, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "determinism verified: 5 runs, schedule hash %016x (%d acquisitions)\n",
		sched.Hash(), sched.Len())
	return nil
}
