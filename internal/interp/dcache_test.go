package interp

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/estimates"
	"repro/internal/ir"
	"repro/internal/sim"
)

// mutualSrc returns a program whose functions even and odd call each other;
// even carries pad instructions after its call, so decoding it goes on well
// after odd's stream (which points back at even's) is complete.
func mutualSrc(pad int) string {
	var b strings.Builder
	b.WriteString(`
module mutual
func odd(r0) regs 4 {
entry:
  r1 = eq r0, 0
  br r1, base, rec
base:
  ret 0
rec:
  r2 = sub r0, 1
  r3 = call even(r2)
  ret r3
}
func even(r0) regs 4 {
entry:
  r1 = eq r0, 0
  br r1, base, rec
base:
  ret 1
rec:
  r2 = sub r0, 1
  r3 = call odd(r2)
`)
	for range pad {
		b.WriteString("  r2 = add r2, 1\n  r2 = mul r2, 1\n")
	}
	b.WriteString(`  ret r3
}
func main() regs 2 {
entry:
  r0 = call even(10)
  print r0
  ret r0
}
func viaodd() regs 2 {
entry:
  r0 = call odd(9)
  print r0
  ret r0
}
`)
	return b.String()
}

// TestSharedDCacheMutualRecursion: a stream reaches the shared cache only with
// everything it calls complete. With mutual recursion odd's stream (which
// points at even's) is finished while even's is still being filled; a second
// machine that found odd then would run even's half-built stream.
func TestSharedDCacheMutualRecursion(t *testing.T) {
	m := ir.MustParse(mutualSrc(20000))
	// The cache key pins both tables: machines share streams only if they
	// share these.
	cm, est := ir.DefaultCostModel(), estimates.DefaultTable()
	run := func(entry string, dc *DCache) {
		_, ths, err := NewMachine(Config{Module: m, Costs: cm, Estimates: est, Entry: entry, DCache: dc, SkipVerify: true})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sim.New(sim.Config{}, Programs(ths)).Run(); err != nil {
			t.Errorf("%s: %v", entry, err)
		} else if len(ths[0].Output) != 1 || ths[0].Output[0] != 1 {
			t.Errorf("%s: output %v, want [1]", entry, ths[0].Output)
		}
	}
	for range 5 {
		dc := NewDCache()
		done := make(chan struct{})
		go func() { defer close(done); run("main", dc) }()
		// The first stream published: on its own (odd, the defect) or with
		// the whole of main's call graph.
		for published := 0; published == 0; runtime.Gosched() {
			dc.mu.Lock()
			published = len(dc.m)
			dc.mu.Unlock()
		}
		run("viaodd", dc)
		<-done
	}
}
