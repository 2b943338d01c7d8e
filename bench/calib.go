package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machine this benchmark runs on is a shared VM whose speed moves with
// what its neighbours do, by 10-25 % and on every scale from a second to
// minutes: in a noisy quarter of an hour, ten 15 s runs of the single-
// threaded, fully deterministic sweep spread by 15 % between quartiles and
// 43 % end to end, and every other workload by 8-16 %. A regression bound
// cannot be tighter than the spread of the thing it bounds, so the end-to-end
// times are reported in nominal seconds: host seconds multiplied by how fast
// the host ran a fixed piece of work (probe) right before and right after the
// round or set-up being timed, relative to what the piece takes on this VM in
// a quiet minute. The piece shares no code with the repository, so no change
// to the repository can move it. One factor per round tracks the changes
// slower than a round; the median over rounds takes care of the faster ones.
//
// What the neighbours take away differs from minute to minute (execution
// units, cache, memory bandwidth, the kernel's paths), and so does what each
// workload needs, so the piece is a mix of four loops of about equal length.
// Tried one at a time on those ten-run sets, each loop helped some workloads
// and not others (the dependent-load chain alone: durable 8.5 % to 2.5 %, but
// sweep only 15 % to 10 %; the wide arithmetic loop alone: sweep to 4 %, but
// cold 13 % to 10 %); the mix took every workload's spread of jobs_per_s to
// 5-9 %. Disk noise it cannot see: disk.go deals with that.
const (
	probeALU      = 4_200_000 // steps of four independent integer chains
	probeTable    = 900_000   // independent loads from 1 MiB, each followed by a branch on the value
	probeLoads    = 60_000    // dependent loads through 16 MiB
	probeSyscalls = 60_000    // getppid calls
	probeNominal  = 0.028     // seconds: each loop takes about 7 ms on this VM when quiet

	chaseWords = 1 << 22 // 16 MiB: beyond L2, inside L3
	tableWords = 1 << 18 // 1 MiB: inside L2
)

var (
	probeSink atomic.Uint64
	chaseAt   atomic.Uint32
	chase     = sync.OnceValue(func() []uint32 {
		// One cycle through every word: a full-period LCG (a ≡ 1 mod 4, c odd).
		c := make([]uint32, chaseWords)
		idx := uint32(0)
		for i := 0; i < chaseWords; i++ {
			next := (idx*1664525 + 1013904223) & (chaseWords - 1)
			c[idx] = next
			idx = next
		}
		return c
	})
	table = sync.OnceValue(func() []uint32 {
		t := make([]uint32, tableWords)
		x := uint32(12345)
		for i := range t {
			x = x*1664525 + 1013904223
			t[i] = x
		}
		return t
	})
)

// aluChain is a register-only chain of n dependent xorshift steps: it follows
// the core's clock and nothing else.
func aluChain(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink.Add(x)
}

// memChase makes n dependent loads through 16 MiB: it follows the memory
// system's latency. Each call walks on from where the last one stopped: a
// short walk from a fixed start would stay in the nearest cache.
func memChase(n int) {
	c := chase()
	at := chaseAt.Load()
	for i := 0; i < n; i++ {
		at = c[at]
	}
	chaseAt.Store(at)
}

// aluWide runs four independent chains for n steps: unlike aluChain it fills
// the core's execution units, so it slows when a neighbour shares them.
func aluWide(n int) {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		c = c*3 + uint64(i)
		d ^= d >> 11
		d += a
	}
	probeSink.Add(a + b + c + d)
}

// tableWalk makes n independent loads from a 1 MiB table at pseudo-random
// places and branches on each value: cache bandwidth and branch recovery,
// as an interpreter's dispatch uses them.
func tableWalk(n int) {
	t := table()
	x := uint32(99)
	var s uint64
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		v := t[x>>14]
		if v&1 == 0 {
			s += uint64(v)
		} else {
			s ^= uint64(v >> 3)
		}
	}
	probeSink.Add(s)
}

// probe runs the fixed piece of work and returns the seconds it took.
func probe() float64 {
	chase()
	table()
	start := time.Now()
	aluWide(probeALU)
	tableWalk(probeTable)
	memChase(probeLoads)
	for i := 0; i < probeSyscalls; i++ {
		syscall.Getppid()
	}
	return time.Since(start).Seconds()
}

// probes hands out the host's speed during each timed section of a run.
// Consecutive sections share the probe between them.
type probes struct {
	last   float64   // the latest probe, seconds; 0 before the first
	speeds []float64 // every factor handed out
}

// around runs fn between two probes and returns the host's speed relative to
// the nominal machine while fn ran: 1 = nominal, below 1 = slower.
func (p *probes) around(fn func() error) (float64, error) {
	if p.last == 0 {
		p.last = probe()
	}
	before := p.last
	err := fn()
	p.last = probe()
	speed := probeNominal / ((before + p.last) / 2)
	p.speeds = append(p.speeds, speed)
	return speed, err
}

// speed is the median factor of the run, for the log.
func (p *probes) speed() float64 {
	if len(p.speeds) == 0 {
		return 1
	}
	return median(p.speeds)
}

// nominal converts one sample from host time to nominal time, given its
// metric's unit and the host's speed while it was taken.
func nominal(unit string, v, speed float64) float64 {
	switch unit {
	case "s", "ms":
		return v * speed
	case "1/s", "1e6/s":
		return v / speed
	}
	return v
}
