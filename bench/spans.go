package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions (the program itself is not instrumented). Spans
// of one job share Job; Parent is the ID of the span that caused it, or -1.
type span struct {
	ID     int    `json:"id"`
	Job    int    `json:"job"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at the end.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(job int, layer string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Job: job, Layer: layer, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a span and returns the span's ID and duration in µs.
func (r *recorder) timed(job int, layer string, parent int, fn func()) (int, float64) {
	start := time.Now()
	fn()
	end := time.Now()
	return r.add(job, layer, parent, start, end), float64(end.Sub(start).Nanoseconds()) / 1e3
}

// selfTimes returns, per span ID, the span's duration minus its children's.
// Children here are replays of the layers a parent call went through, run
// outside the parent's interval, so their durations are subtracted whole; a
// parent faster than the replay of its parts has self time 0.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}
