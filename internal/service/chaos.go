package service

import (
	"fmt"
	"sync"

	"repro/internal/detrand"
	"repro/internal/diag"
)

// The service chaos harness extends the runtime-level fault injector
// (internal/det.FaultInjector) one layer up: where that injector perturbs
// lock boundaries inside a deterministic run, this one perturbs the service
// around the runs — worker panics mid-job, journal write errors, and (driven
// by the tests via Service.Kill) SIGTERM-style crashes mid-queue. Both draw
// their perturbation schedules from the same detrand.Rand xorshift streams, so a
// chaos schedule is a pure function of its seed and the order of injection
// points, reproducible across runs.
//
// Like the runtime injector, this is a test facility: production configs
// leave Config.Faults nil, which reduces every injection point to a nil
// check.

// FaultConfig selects service-layer fault injection.
type FaultConfig struct {
	// Seed derives the deterministic injection streams.
	Seed int64
	// WorkerPanicRate is the per-attempt probability that a job execution
	// panics with a diag.ErrInjected-tagged error (0 disables). Injected
	// panics are contained and classified transient, so they exercise the
	// retry path.
	WorkerPanicRate float64
	// JournalErrEvery fails every Nth journal append with an injected write
	// error (0 disables), exercising the graceful-degradation path.
	JournalErrEvery int64
}

// chaos is the armed injector. A nil *chaos (faults disabled) is valid and
// inert for every method.
type chaos struct {
	cfg FaultConfig

	mu      sync.Mutex
	panics  *detrand.Rand
	appends int64
}

func newChaos(cfg *FaultConfig) *chaos {
	if cfg == nil {
		return nil
	}
	return &chaos{cfg: *cfg, panics: detrand.New(cfg.Seed, 1)}
}

// workerPanic decides whether this job attempt should panic; the draw
// consumes the panic stream, so the schedule of injected panics depends only
// on the seed and the attempt order.
func (c *chaos) workerPanic() bool {
	if c == nil || c.cfg.WorkerPanicRate <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.panics.Float() < c.cfg.WorkerPanicRate
}

// journalErr returns an injected write error on every JournalErrEvery-th
// append, nil otherwise.
func (c *chaos) journalErr() error {
	if c == nil || c.cfg.JournalErrEvery <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appends++
	if c.appends%c.cfg.JournalErrEvery == 0 {
		return fmt.Errorf("%w: journal append %d", diag.ErrInjected, c.appends)
	}
	return nil
}
