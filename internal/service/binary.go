package service

import (
	"encoding/binary"
	"math"

	"repro/internal/bin"
	"repro/internal/harness"
	"repro/internal/trace"
)

// Binary codecs of the three types that cross between cluster peers (the
// frame around them is internal/cluster/wire.go; DESIGN §11 has the layout).
// The JSON tags in job.go remain the public API's and the journal's format;
// TestBinaryMatchesJSON holds the two to the same values and
// TestBinaryCodecCoversEveryField fails when a field is added to one of these
// types, or to trace.Event or harness.OverheadRow, without being added here.

// AppendBinary appends the request's encoding to b.
func (q *Request) AppendBinary(b []byte) []byte {
	a := &q.Artifacts
	b = append(b, bin.Flags(&q.Baseline, &q.Race, &a.Schedule, &a.Stats, &a.OverheadRow))
	b = bin.AppendString(b, q.Source)
	b = bin.AppendString(b, q.Entry)
	b = bin.AppendString(b, q.Preset)
	b = binary.AppendVarint(b, int64(q.Threads))
	b = binary.AppendVarint(b, q.PerturbSeed)
	return binary.AppendVarint(b, q.DeadlineMS)
}

// DecodeBinary overwrites the request with the encoding at r.
func (q *Request) DecodeBinary(r *bin.Reader) {
	a := &q.Artifacts
	bin.SetFlags(r.Byte(), &q.Baseline, &q.Race, &a.Schedule, &a.Stats, &a.OverheadRow)
	q.Source = r.String()
	q.Entry = r.String()
	q.Preset = r.String()
	q.Threads = bin.Narrow(r.Varint())
	q.PerturbSeed = r.Varint()
	q.DeadlineMS = r.Varint()
}

// AppendBinary appends the lent job's encoding to b.
func (j *StolenJob) AppendBinary(b []byte) []byte {
	return j.Req.AppendBinary(bin.AppendString(b, j.ID))
}

// DecodeBinary overwrites the lent job with the encoding at r.
func (j *StolenJob) DecodeBinary(r *bin.Reader) {
	j.ID = r.String()
	j.Req.DecodeBinary(r)
}

// counters and overheadFloats list a result's plain integers and an overhead
// row's floats in wire order, for the encoder and the decoder alike.
func (res *Result) counters() [8]*int64 {
	return [...]*int64{&res.Cycles, &res.WaitCycles, &res.Acquisitions, &res.ClockUpdates,
		&res.Stage.ParseNS, &res.Stage.InstrumentNS, &res.Stage.SimulateNS, &res.Stage.OverheadNS}
}

func overheadFloats(o *harness.OverheadRow) [4]*float64 {
	return [...]*float64{&o.BaselineMS, &o.LocksPerSec, &o.ClocksPct, &o.DetPct}
}

// AppendBinary appends the result's encoding to b.
func (res *Result) AppendBinary(b []byte) []byte {
	hasSchedule, hasOverhead := res.Schedule != nil, res.Overhead != nil
	b = append(b, bin.Flags(&res.Cached, &res.InstrCached, &res.SelfChecked, &res.PeerFilled, &res.Remote, &hasSchedule, &hasOverhead))
	b = bin.AppendString(b, res.JobID)
	b = bin.AppendString(b, res.ScheduleHash)
	b = binary.AppendVarint(b, int64(res.ScheduleLen))
	for _, p := range res.counters() {
		b = binary.AppendVarint(b, *p)
	}
	b = binary.AppendUvarint(b, uint64(len(res.Clockable)))
	for _, name := range res.Clockable {
		b = bin.AppendString(b, name)
	}
	if hasSchedule {
		b = res.Schedule.AppendBinary(b)
	}
	if o := res.Overhead; hasOverhead {
		b = binary.AppendVarint(b, o.BaselineCycles)
		b = binary.AppendVarint(b, int64(o.Clockable))
		for _, p := range overheadFloats(o) {
			b = binary.AppendUvarint(b, math.Float64bits(*p))
		}
	}
	return b
}

// DecodeBinary overwrites the result with the encoding at r.
func (res *Result) DecodeBinary(r *bin.Reader) {
	var hasSchedule, hasOverhead bool
	bin.SetFlags(r.Byte(), &res.Cached, &res.InstrCached, &res.SelfChecked, &res.PeerFilled, &res.Remote, &hasSchedule, &hasOverhead)
	res.JobID = r.String()
	res.ScheduleHash = r.String()
	res.ScheduleLen = bin.Narrow(r.Varint())
	for _, p := range res.counters() {
		*p = r.Varint()
	}
	res.Clockable = nil
	if n := r.Count(1); n > 0 {
		res.Clockable = make([]string, n)
	}
	for i := range res.Clockable {
		res.Clockable[i] = r.String()
	}
	res.Schedule, res.Overhead = nil, nil
	if hasSchedule {
		res.Schedule = trace.New()
		res.Schedule.DecodeBinary(r)
	}
	if hasOverhead {
		o := &harness.OverheadRow{BaselineCycles: r.Varint(), Clockable: bin.Narrow(r.Varint())}
		for _, p := range overheadFloats(o) {
			*p = math.Float64frombits(r.Uvarint())
		}
		res.Overhead = o
	}
}
