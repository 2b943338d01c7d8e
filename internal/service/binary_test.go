package service

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bin"
	"repro/internal/detrand"
	"repro/internal/harness"
	"repro/internal/trace"
)

// randString draws a valid-UTF-8 string (so JSON preserves it) that still
// holds every byte JSON must escape.
func randString(rng *detrand.Rand) string {
	alphabet := []string{"a", "Z", "0", " ", "\n", "\x00", `"`, `\`, "<", "é", "\u2028", "😀"}
	var sb strings.Builder
	for n := rng.IntN(12); n > 0; n-- {
		sb.WriteString(alphabet[rng.IntN(len(alphabet))])
	}
	return sb.String()
}

// randInt draws from the values a varint treats differently: zero, small,
// negative, and the extremes.
func randInt(rng *detrand.Rand) int64 {
	switch rng.IntN(5) {
	case 0:
		return 0
	case 1:
		return int64(rng.IntN(100))
	case 2:
		return -int64(rng.IntN(1 << 20))
	case 3:
		return int64(rng.Next())
	default:
		return -1 << 63
	}
}

func randRequest(rng *detrand.Rand) Request {
	coin := func() bool { return rng.IntN(2) == 0 }
	return Request{
		Source: randString(rng), Entry: randString(rng), Preset: randString(rng),
		Threads: int(randInt(rng)), PerturbSeed: randInt(rng), DeadlineMS: randInt(rng),
		Baseline: coin(), Race: coin(),
		Artifacts: Artifacts{Schedule: coin(), Stats: coin(), OverheadRow: coin()},
	}
}

// randResult sets or leaves unset every field independently; schedules are
// nil, empty, short or (one draw in eight) 10k events long.
func randResult(rng *detrand.Rand) *Result {
	coin := func() bool { return rng.IntN(2) == 0 }
	res := &Result{
		JobID: randString(rng), Outcome: Outcome{
			ScheduleHash: randString(rng), ScheduleLen: int(randInt(rng)), Cycles: randInt(rng),
			WaitCycles: randInt(rng), Acquisitions: randInt(rng), ClockUpdates: randInt(rng)},
		Cached: coin(), InstrCached: coin(), SelfChecked: coin(), PeerFilled: coin(), Remote: coin(),
		Stage: StageLatency{ParseNS: randInt(rng), InstrumentNS: randInt(rng), SimulateNS: randInt(rng), OverheadNS: randInt(rng)},
	}
	for n := rng.IntN(4); n > 0; n-- {
		res.Clockable = append(res.Clockable, randString(rng))
	}
	if coin() {
		res.Schedule = trace.New()
		events := []int{0, 1, 22, 300}[rng.IntN(4)]
		if rng.IntN(8) == 0 {
			events = 10000
		}
		for ; events > 0; events-- {
			res.Schedule.Record(int(int32(randInt(rng))), int(int32(randInt(rng))), randInt(rng))
		}
	}
	if coin() {
		res.Overhead = &harness.OverheadRow{
			BaselineCycles: randInt(rng), Clockable: int(randInt(rng)),
			BaselineMS: (rng.Float() - 0.5) * 1e9, LocksPerSec: rng.Float(), ClocksPct: -rng.Float() * 1e-9, DetPct: float64(randInt(rng)),
		}
	}
	return res
}

// codec is what Result, Request and StolenJob (and the cluster messages made
// of them) implement.
type codec interface {
	AppendBinary(b []byte) []byte
	DecodeBinary(r *bin.Reader)
}

// viaBinary and viaJSON round-trip x into a fresh value of its type.
func viaBinary(t *testing.T, x codec) any {
	t.Helper()
	enc := x.AppendBinary([]byte{0xff})[1:] // appends, whatever is there already
	got := reflect.New(reflect.TypeOf(x).Elem()).Interface().(codec)
	r := bin.NewReader(enc)
	got.DecodeBinary(r)
	if err := r.Done(); err != nil {
		t.Fatalf("%T: decoding its own encoding: %v", x, err)
	}
	for n := 0; n < len(enc) && n < 200; n++ { // every short prefix is refused
		r := bin.NewReader(enc[:n])
		reflect.New(reflect.TypeOf(x).Elem()).Interface().(codec).DecodeBinary(r)
		if r.Done() == nil {
			t.Fatalf("%T: a %d-byte prefix of its %d-byte encoding decoded", x, n, len(enc))
		}
	}
	return got
}

func viaJSON(t *testing.T, x any) any {
	t.Helper()
	data, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	got := reflect.New(reflect.TypeOf(x).Elem()).Interface()
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBinaryMatchesJSON is the codec's round-trip property: over seeded
// Result, Request and StolenJob values with every field set and unset,
// decode(encode(x)) deep-equals x and equals what x's JSON round trip yields
// — the peer surface and the public/journal surface hold the same values.
// Source bytes that are not UTF-8 are where they part: the frame carries them
// verbatim, which JSON cannot.
func TestBinaryMatchesJSON(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := detrand.New(seed, 0)
		req := randRequest(rng)
		for _, x := range []codec{&req, randResult(rng), &StolenJob{ID: randString(rng), Req: randRequest(rng)}} {
			got := viaBinary(t, x)
			if !reflect.DeepEqual(got, x) {
				t.Fatalf("seed %d: binary round trip of %T:\n got %+v\nwant %+v", seed, x, got, x)
			}
			if j := viaJSON(t, x); !reflect.DeepEqual(got, j) {
				t.Fatalf("seed %d: %T through binary and through JSON disagree:\nbinary %+v\n  JSON %+v", seed, x, got, j)
			}
		}
	}
	raw := &Request{Source: "module m\xff\xfe\x80 \xc3", Entry: "\xed\xa0\x80"}
	if got := viaBinary(t, raw); !reflect.DeepEqual(got, raw) {
		t.Fatalf("non-UTF-8 source changed in the frame: %q", got.(*Request).Source)
	}
}

// TestBinaryCodecCoversEveryField fails when a type a hand codec walks gains,
// loses or retypes a field. encoding/json picks new fields up by itself;
// binary.go (and trace/binary.go for Event), json.go's one-pass Request
// decoder and its Request and Result writers, and journal.go's record writer
// do not: add the field to binary.go, to json.go (or journal.go's writeJSON for
// a record field), to randRequest / randResult above or FuzzRecordMatchesEncoder,
// and only then to these literals.
func TestBinaryCodecCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{Request{}, "Source string; Entry string; Threads int; Preset string; Baseline bool; PerturbSeed int64; Race bool; DeadlineMS int64; Artifacts service.Artifacts"},
		{Artifacts{}, "Schedule bool; Stats bool; OverheadRow bool"},
		{StageLatency{}, "ParseNS int64; InstrumentNS int64; SimulateNS int64; OverheadNS int64"},
		{Result{}, "JobID string; Cached bool; InstrCached bool; SelfChecked bool; PeerFilled bool; Remote bool; Outcome service.Outcome; " +
			"Stage service.StageLatency"},
		{Outcome{}, "ScheduleHash string; ScheduleLen int; Cycles int64; WaitCycles int64; Acquisitions int64; ClockUpdates int64; " +
			"Clockable []string; Schedule *trace.Schedule; Overhead *harness.OverheadRow"},
		{StolenJob{}, "ID string; Req service.Request"},
		{trace.Event{}, "Seq int64; Lock int; Thread int; Clock int64"},
		{harness.OverheadRow{}, "BaselineCycles int64; BaselineMS float64; LocksPerSec float64; Clockable int; ClocksPct float64; DetPct float64"},
		{journalRecord{}, "Type string; ID string; Claim string; Src string; Req *service.Request; Result *service.Result; Error string; Kind string; Text string"},
	} {
		typ := reflect.TypeOf(tc.v)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, fmt.Sprintf("%s %s", typ.Field(i).Name, typ.Field(i).Type))
		}
		if got := strings.Join(fields, "; "); got != tc.want {
			t.Errorf("%s changed and its hand codecs have not been told:\n got %s\nwant %s", typ, got, tc.want)
		}
	}
}

// medianFillReply is the shape of n3's median fill reply: an exported cache
// entry (job fields zero) with a 22-event schedule.
func medianFillReply() *Result {
	sched := trace.New()
	for i := 0; i < 22; i++ {
		sched.Record(i%3, i%4, int64(40+37*i))
	}
	return &Result{Outcome: Outcome{
		ScheduleHash: fmt.Sprintf("%016x", sched.Hash()), ScheduleLen: sched.Len(), Cycles: 2731,
		WaitCycles: 412, Acquisitions: 22, ClockUpdates: 187, Schedule: sched}}
}

// TestFillReplyCodecBudget pins what one encode + decode of the median fill
// reply costs, at what it measured when written: 120 bytes and 3 allocations
// (the hash string, the schedule, its events; the caller owns the buffer and
// the Result). As JSON the same value is 1.2 kB and 29 allocations.
func TestFillReplyCodecBudget(t *testing.T) {
	res := medianFillReply()
	var size int
	allocs := testing.AllocsPerRun(100, func() {
		enc := res.AppendBinary(make([]byte, 0, 256))
		size = len(enc)
		var got Result
		r := bin.NewReader(enc)
		got.DecodeBinary(r)
		if r.Done() != nil || !got.selfConsistent() {
			t.Fatal("the reply did not survive its round trip")
		}
	})
	t.Logf("median fill reply: %d bytes, %v allocations per encode + decode", size, allocs)
	if size > 120 || allocs > 3 {
		t.Fatalf("median fill reply costs %d bytes and %v allocations; pinned at 120 and 3", size, allocs)
	}
}
