// Package workload turns a single seed into a reproducible traffic
// timeline: seeded arrival processes (open-loop Poisson, bursty MMPP,
// diurnal rate curves, closed-loop with think time, JSONL trace replay), a
// job-mix synthesizer drawing programs from the irgen generators (including
// the sync idiom family), a driver that pushes the stream through the
// service layer — single node or LoopNet cluster — and a scenario matrix
// runner producing deterministic, byte-identical result tables.
//
// Randomness is partitioned per subsystem exactly like internal/nemesis:
// each class of decision draws from its own detrand.Rand stream derived from
// (seed, class id), so changing how many draws one class consumes never
// shifts another class's timeline — the arrival shape can change without
// perturbing which programs the mix picks, and vice versa.
package workload

import "repro/internal/detrand"

// Stream classes. Every seeded decision in the workload plane belongs to
// exactly one class.
const (
	// ClassArrival drives inter-arrival gaps and burst-phase switching.
	ClassArrival = "arrival"
	// ClassMix drives which program each arrival submits.
	ClassMix = "mix"
	// ClassPayload drives program-generation seeds for the mix pool.
	ClassPayload = "payload"
	// ClassThink drives closed-loop per-client think times.
	ClassThink = "think"
)

// PartitionedRNG is detrand's stream registry under the name bench/ uses. The
// class ids (31–34) share detrand's table with the nemesis plane's, so one
// seed never aliases workload draws with fault-schedule draws; other labels
// (the per-client think streams) hash into the workload ad-hoc range.
type PartitionedRNG = detrand.Streams

// NewPartitionedRNG returns a partitioned source rooted at seed.
func NewPartitionedRNG(seed int64) *PartitionedRNG {
	return detrand.NewStreams(seed, detrand.WorkloadAdhocBase)
}
