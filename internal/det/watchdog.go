package det

import (
	"hash/fnv"
	"time"

	"repro/internal/diag"
)

// The progress watchdog catches the stuck states the wait-for graph cannot
// see: livelocks. A thread spinning in user code with a low clock that never
// ticks and never synchronizes starves every higher-clock thread's turn
// forever, yet nobody is *blocked*, so the deadlock predicate stays false.
// The watchdog samples a fingerprint of the runtime's deterministic state
// (all logical clocks, thread liveness, acquisition count); if the
// fingerprint does not change for the stall bound, no clock advanced and no
// synchronization event completed — the run is stalled, and the watchdog
// delivers a diag.WatchdogError carrying the same per-thread snapshot the
// deadlock detector produces.
//
// The monitor is off by default and costs nothing when disabled: no
// goroutine runs and the lock paths carry no extra state — the fingerprint
// is computed from fields the runtime already maintains.

// WatchdogConfig tunes the progress monitor.
type WatchdogConfig struct {
	// Interval is the sampling period (default 10ms).
	Interval time.Duration
	// Stall is how long the fingerprint may stay unchanged before the
	// watchdog faults the run (default 2s).
	Stall time.Duration
	// Grace bounds how long Run waits, after a fault, for threads stuck in
	// user code to unwind before abandoning them (default 1s). Threads
	// blocked or spinning inside the runtime always unwind promptly.
	Grace time.Duration
}

func (c *WatchdogConfig) withDefaults() WatchdogConfig {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 10 * time.Millisecond
	}
	if out.Stall <= 0 {
		out.Stall = 2 * time.Second
	}
	if out.Grace <= 0 {
		out.Grace = time.Second
	}
	return out
}

// EnableWatchdog arms the progress monitor for subsequent Run calls. Call
// before Run; a nil config enables the defaults.
func (rt *Runtime) EnableWatchdog(cfg *WatchdogConfig) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if cfg == nil {
		cfg = &WatchdogConfig{}
	}
	c := cfg.withDefaults()
	rt.watchdog = &c
}

// startWatchdog launches the monitor if armed, returning a stop function and
// the post-fault grace period for Run.
func (rt *Runtime) startWatchdog() (stop func(), grace time.Duration) {
	rt.mu.Lock()
	cfg := rt.watchdog
	rt.mu.Unlock()
	if cfg == nil {
		return func() {}, time.Second
	}
	stopCh := make(chan struct{})
	go rt.watchdogLoop(*cfg, stopCh)
	return func() { close(stopCh) }, cfg.Grace
}

func (rt *Runtime) watchdogLoop(cfg WatchdogConfig, stop chan struct{}) {
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	last := rt.fingerprint()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		fp := rt.fingerprint()
		if fp != last {
			last = fp
			lastChange = time.Now()
			continue
		}
		stalled := time.Since(lastChange)
		if stalled < cfg.Stall {
			continue
		}
		rt.mu.Lock()
		if rt.fault == nil && rt.nLive > 0 {
			rt.deliverFaultLocked(&diag.WatchdogError{
				NoProgressFor: stalled,
				Threads:       rt.snapshotLocked(),
			})
		}
		rt.mu.Unlock()
		return
	}
}

// fingerprint hashes the runtime's deterministic progress state: any tick,
// acquisition, spawn, block, unblock or finish changes it. (Every
// synchronization event ticks at least one clock, so clocks + liveness +
// acquisition count cover all progress.)
func (rt *Runtime) fingerprint() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(int64(len(rt.threads)))
	put(int64(rt.nLive))
	put(rt.acquisitions.Load())
	for _, t := range rt.threads {
		put(t.clock.Load())
		state := int64(t.blocked)
		if t.done {
			state |= 1 << 8
		}
		put(state)
	}
	return h.Sum64()
}
