package trace

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// raceEnabled says the test binary was built with -race (race_test.go).
var raceEnabled bool

// allocBytesPerRun is testing.AllocsPerRun in bytes: the heap bytes f
// allocates per call, averaged over runs calls after one warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestScheduleBinaryRoundTrip: for nil-event, empty, small and 10k-event
// schedules with negative and large fields, decode(encode(s)) deep-equals s
// and equals what the JSON round trip of s yields, so the peer surface and
// the stored one cannot drift.
func TestScheduleBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := New()
	extremes.Record(-1, -7, -1<<63)
	extremes.Record(1<<31-1, 0, 1<<63-1)
	cases := []*Schedule{New(), extremes, randomSchedule(rng, 22), randomSchedule(rng, 10000)}
	for _, s := range cases {
		enc := s.AppendBinary([]byte("prefix"))
		got := New()
		got.Record(9, 9, 9) // decoding replaces, never appends
		if err := got.UnmarshalBinary(enc[len("prefix"):]); err != nil {
			t.Fatalf("%d events: %v", s.Len(), err)
		}
		if !reflect.DeepEqual(got.Events(), s.Events()) || got.Hash() != s.Hash() {
			t.Fatalf("%d events: binary round trip changed the schedule", s.Len())
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON := New()
		if err := json.Unmarshal(data, viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events(), viaJSON.Events()) {
			t.Fatalf("%d events: binary and JSON round trips disagree", s.Len())
		}
		if s.Len() == 22 && len(enc)-len("prefix") > 90 {
			t.Errorf("22 events took %d bytes; DESIGN §11 says about 70", len(enc)-len("prefix"))
		}
	}
}

// TestScheduleBinaryRejects: every strict prefix of an encoding, the encoding
// with a byte appended, and a count the bytes cannot hold are errors — the
// last without allocating the events it claims.
func TestScheduleBinaryRejects(t *testing.T) {
	enc := randomSchedule(rand.New(rand.NewSource(2)), 40).AppendBinary(nil)
	for n := 0; n < len(enc); n++ {
		if err := New().UnmarshalBinary(enc[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte schedule decoded", n, len(enc))
		}
	}
	if err := New().UnmarshalBinary(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	huge := binary.AppendUvarint(nil, 1<<32) // 2³² events, no bytes behind the claim
	s := New()
	refuse := func() {
		if err := s.UnmarshalBinary(huge); err == nil {
			t.Fatal("a schedule of 2³² events decoded from 5 bytes")
		}
	}
	if raceEnabled {
		// The race runtime allocates objects inside the run, so the count
		// is not the decoder's; a byte bound of 32 events still shows any
		// slice sized from the claim.
		if n := allocBytesPerRun(10, refuse); n > 1024 {
			t.Fatalf("refusing an impossible count allocated %d bytes", n)
		}
	} else if allocs := testing.AllocsPerRun(10, refuse); allocs > 2 {
		// the reader and the wrapped error; never the 128 GiB of events
		t.Fatalf("refusing an impossible count allocated %v objects", allocs)
	}
	if err := s.UnmarshalBinary(binary.AppendUvarint(nil, 1<<63)); err == nil {
		t.Fatal("a count past int decoded")
	}
}
