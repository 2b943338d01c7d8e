// Package nemesis is the seeded, deterministic fault-schedule engine behind
// the repo's chaos properties. One seed value produces one reproducible fault
// timeline across three planes — process (kills/restarts), storage (short
// writes, fsync errors, ENOSPC, post-crash corruption), and network
// (partitions, latency, flaky links, payload corruption) — so a failing
// schedule replays exactly from its seed, the same argument determinism makes
// for the programs under test (Aviram et al.: determinism is what makes fault
// tolerance checkable).
//
// The engine's one structural idea is *per-fault-class partitioned RNG
// streams*: every fault class draws from its own detrand.Rand stream derived
// from (seed, class id), and no class ever reads another's stream. Adding,
// removing, or re-rating the ops of one class therefore cannot shift the
// timeline of any other class — storage faults stay put when network faults
// are toggled — which keeps schedules comparable across harness versions and
// makes "same seed, same timeline" a property a test can assert rather than
// hope for.
//
// Two kinds of record are kept apart on purpose:
//
//   - the *timeline* holds executed plan events (Plan precomputes them as a
//     pure function of the seed; the harness Records each one as it applies
//     it), and Fingerprint over it is the object the determinism property
//     compares;
//   - *observations* hold online injections whose position depends on system
//     progress (which Write call the k-th fault landed on), informational
//     for debugging, never fingerprinted.
package nemesis

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/detrand"
)

// Fault classes. Each owns one RNG stream; the ids (10–15) live in
// internal/detrand's class table and must never be renumbered. A class
// outside the table still partitions deterministically (its name is hashed).
const (
	ClassProcess   = "process"
	ClassStorage   = "storage"
	ClassNetwork   = "network"
	ClassIntegrity = "integrity"
	ClassWorkload  = "workload"
	// ClassMembership covers cluster-churn faults: seeded join, leave, drain
	// and flap schedules against the dynamic membership plane.
	ClassMembership = "membership"
)

// Event is one fault (or workload) injection: where in the schedule it fires,
// which class and op, the target it lands on, and a small op-specific
// argument (variant index, scar kind selector, latency bucket, ...).
type Event struct {
	Step   int    `json:"step"`
	Class  string `json:"class"`
	Op     string `json:"op"`
	Target string `json:"target,omitempty"`
	Arg    int    `json:"arg,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("%04d %s/%s", e.Step, e.Class, e.Op)
	if e.Target != "" {
		s += " @" + e.Target
	}
	s += fmt.Sprintf(" #%d", e.Arg)
	return s
}

// Engine is one seeded schedule's state: the partitioned streams (Stream is
// the registry's: the same (seed, class) always yields the same stream) plus
// the executed timeline and online observations.
type Engine struct {
	*detrand.Streams

	mu           sync.Mutex
	timeline     []Event
	observations []Event
}

// New builds an engine for seed. Engines are cheap; one per schedule run.
func New(seed int64) *Engine {
	return &Engine{Streams: detrand.NewStreams(seed, detrand.NemesisAdhocBase)}
}

// Record appends one executed plan event to the timeline. Harnesses call it
// as they apply each planned event, so Fingerprint() over the timeline equals
// Fingerprint(plan) exactly when the plan was executed faithfully.
func (n *Engine) Record(e Event) {
	n.mu.Lock()
	n.timeline = append(n.timeline, e)
	n.mu.Unlock()
}

// Observe appends one online injection (a FaultFS write error, a scar's
// byte position) to the observation log. Observations are diagnostics: their
// order depends on system progress, so they are never fingerprinted.
func (n *Engine) Observe(class, op, target, detail string) {
	n.mu.Lock()
	n.observations = append(n.observations, Event{Step: -1, Class: class, Op: op, Target: target})
	_ = detail
	n.mu.Unlock()
}

// Timeline returns a copy of the executed events, in execution order.
func (n *Engine) Timeline() []Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Event, len(n.timeline))
	copy(out, n.timeline)
	return out
}

// Observations returns a copy of the online injection log.
func (n *Engine) Observations() []Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Event, len(n.observations))
	copy(out, n.observations)
	return out
}

// Fingerprint condenses the executed timeline to a comparable hex digest.
func (n *Engine) Fingerprint() string { return Fingerprint(n.Timeline()) }

// Fingerprint condenses an event sequence to a hex digest; two schedules are
// "the same fault timeline" exactly when their fingerprints match.
func Fingerprint(events []Event) string {
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintln(h, e.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// OpSpec declares one op a plan may fire: its fault class, name, and
// per-step firing probability. Ops of the same class draw from that class's
// stream in the order given, so an op list is part of schedule identity.
type OpSpec struct {
	Class string
	Op    string
	Rate  float64
	// ArgN bounds the op's drawn argument: Arg is uniform in [0, ArgN)
	// (0 or 1 means the op takes no argument and Arg is always 0).
	ArgN int
}

// PlanConfig shapes a plan: how many steps and which targets ops land on.
type PlanConfig struct {
	Steps   int
	Targets []string
}

// Plan precomputes a fault timeline: for each step, every class present in
// ops draws — from its own stream only — whether each of its ops fires, and
// if so on which target and with which argument. The result is a pure
// function of (seed, cfg, ops): regenerating with the same inputs yields an
// identical event sequence, which is the determinism property the nemesis
// tests assert end to end.
func Plan(seed int64, cfg PlanConfig, ops []OpSpec) []Event {
	eng := New(seed)
	// Fixed class iteration order: first appearance in ops. Iterating the
	// streams map would be nondeterministic; the op list's order is part of
	// the schedule's identity instead.
	var classes []string
	seen := map[string]bool{}
	for _, op := range ops {
		if !seen[op.Class] {
			seen[op.Class] = true
			classes = append(classes, op.Class)
		}
	}
	var plan []Event
	for step := 0; step < cfg.Steps; step++ {
		for _, class := range classes {
			r := eng.Stream(class)
			for _, op := range ops {
				if op.Class != class {
					continue
				}
				if r.Float() >= op.Rate {
					continue
				}
				e := Event{Step: step, Class: class, Op: op.Op}
				if len(cfg.Targets) > 0 {
					e.Target = cfg.Targets[r.IntN(len(cfg.Targets))]
				}
				if op.ArgN > 1 {
					e.Arg = r.IntN(op.ArgN)
				}
				plan = append(plan, e)
			}
		}
	}
	return plan
}
