package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bin"
)

// Binary wire format, the one a schedule crosses between cluster peers in
// (DESIGN §11): the event count, then lock, thread and clock of each event as
// zigzag varints. Seq is not sent — an event's position is its sequence
// number — so "dense and ascending from 0" cannot be violated by any input.

// AppendBinary appends the schedule's encoding to b.
func (s *Schedule) AppendBinary(b []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b = binary.AppendUvarint(b, uint64(len(s.events)))
	for i := range s.events {
		e := &s.events[i]
		b = binary.AppendVarint(b, int64(e.Lock))
		b = binary.AppendVarint(b, int64(e.Thread))
		b = binary.AppendVarint(b, e.Clock)
	}
	return b
}

// DecodeBinary replaces the schedule's contents with the encoding at r. A
// count the remaining bytes cannot hold (three per event at least) fails
// before the events are allocated.
func (s *Schedule) DecodeBinary(r *bin.Reader) {
	var events []Event
	if n := r.Count(3); n > 0 {
		events = make([]Event, n)
	}
	for i := range events {
		events[i] = Event{Seq: int64(i), Lock: bin.Narrow(r.Varint()), Thread: bin.Narrow(r.Varint()), Clock: r.Varint()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = events
}

// UnmarshalBinary is DecodeBinary over exactly b: trailing bytes are an error.
func (s *Schedule) UnmarshalBinary(b []byte) error {
	r := bin.NewReader(b)
	s.DecodeBinary(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("trace: corrupt schedule: %w", err)
	}
	return nil
}
