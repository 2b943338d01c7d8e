// Package detrand is the repository's one deterministic generator and its one
// class→stream registry. Every seeded decision outside the simulated programs
// — fault schedules, workload timelines, retry jitter, self-check sampling,
// program generation, physical-timing jitter — draws from a Rand, and both
// partitioned planes (internal/nemesis, internal/workload) hand their streams
// out of a Streams, whose ids are kept disjoint by a checked table rather than
// by a comment. A leaf package: it imports only internal/diag.
package detrand

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/diag"
)

// Rand is a deterministic xorshift64 stream, reproducible from its initial
// state alone. Consume it from one goroutine (or under its owner's lock).
type Rand struct{ state uint64 }

// New derives a stream from (seed, stream id); the id separates streams of
// the same seed.
func New(seed int64, id int) *Rand {
	return &Rand{state: uint64(seed)*2654435761 + uint64(id)*0x9e3779b9 + 1}
}

// FromState returns the stream that starts at a raw generator state, for
// callers that derive it themselves (irgen from a program seed, interp from
// JitterSeed and the thread id).
func FromState(state uint64) Rand { return Rand{state: state} }

// Next returns the next value of the stream.
func (r *Rand) Next() uint64 {
	v := r.state
	if v == 0 {
		v = 0x9E3779B97F4A7C15 // 0 is xorshift's fixed point; step off it
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	r.state = v
	return v
}

// Float returns the next value scaled into [0, 1).
func (r *Rand) Float() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// IntN returns a value in [0, n). A non-positive n yields 0 and consumes no
// draw.
func (r *Rand) IntN(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// classIDs is the stream-id table: every named class of every plane. Ids are
// part of a seed's schedule identity and must never be renumbered.
var classIDs = map[string]int{
	// internal/nemesis fault classes.
	"membership": 10,
	"process":    11,
	"storage":    12,
	"network":    13,
	"integrity":  14,
	"workload":   15,
	// internal/workload decision classes.
	"arrival": 31,
	"mix":     32,
	"payload": 33,
	"think":   34,
}

// adhocBuckets is the width of the range labels outside the table hash into.
const adhocBuckets = 1009

// Ad-hoc bases: where each plane's labels outside the table land. Both ranges
// predate the shared registry and are part of committed timelines.
const (
	NemesisAdhocBase  = 16   // ids 16..1024
	WorkloadAdhocBase = 1101 // ids 1101..2109
)

// Streams hands out one independent stream per class label of one seed: the
// same (seed, label) always yields the same sequence, whichever other labels
// were used before. Safe for concurrent use; each stream has one consumer.
type Streams struct {
	seed      int64
	adhocBase int

	mu      sync.Mutex
	streams map[string]*Rand
	holder  map[int]string // stream id → the label it was handed to
	err     error
}

// NewStreams returns a registry rooted at seed whose labels outside the class
// table hash into the adhocBuckets ids starting at adhocBase.
func NewStreams(seed int64, adhocBase int) *Streams {
	return &Streams{seed: seed, adhocBase: adhocBase, streams: map[string]*Rand{}, holder: map[int]string{}}
}

// Stream returns the label's stream, creating it on first use. A label in
// the class table gets its fixed id; any other (a per-client stream, a
// harness's custom class) a stable id hashed from its name. Hashed ids can
// collide, and two labels on one id would silently share a sequence: the
// registry records a typed error naming both — check Err after requesting
// labels built from input.
func (s *Streams) Stream(label string) *Rand {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.streams[label]; ok {
		return r
	}
	id, ok := classIDs[label]
	if !ok {
		h := fnv.New32a()
		h.Write([]byte(label))
		id = s.adhocBase + int(h.Sum32()%adhocBuckets)
	}
	if other, held := s.holder[id]; held && s.err == nil {
		s.err = &diag.MisuseError{Op: "detrand.Stream", ThreadID: -1, Kind: diag.ErrBadConfig,
			Detail: fmt.Sprintf("stream labels %q and %q both map to stream id %d and would share one sequence", other, label, id)}
	}
	s.holder[id] = label
	r := New(s.seed, id)
	s.streams[label] = r
	return r
}

// Err reports the first stream-id collision this registry has seen, nil when
// every label handed out so far has its own id.
func (s *Streams) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
