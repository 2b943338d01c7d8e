package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// Nothing outside stats.go names a /v1/stats field, so nothing but this file
// holds the endpoint's bytes still. testdata/stats_wire.golden is
// json.MarshalIndent of a StatsSnapshot whose every field holds a distinct
// non-zero value (so omitempty hides nothing and a swapped pair shows),
// followed by json.Marshal of the zero value (so a dropped or added omitempty
// shows).
//
// The file is never regenerated from the code under test. It was written at
// 7767f7b, the parent of the PR that made the snapshot a generic struct. After
// a change of the payload that is meant, check out the commit whose bytes are
// the reference, copy this file there, and run
//
//	STATS_WIRE_OUT=$PWD/internal/service/testdata/stats_wire.golden go test -run TestStatsWire ./internal/service/
//
// which writes the file instead of comparing against it.
const statsWireGolden = "testdata/stats_wire.golden"

// fillDistinct sets everything under v to a distinct non-zero value: integers
// count up from *n, strings are "s<n>", bools true, a slice gets one element
// and a map one entry.
func fillDistinct(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), n)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fillDistinct(s.Index(0), n)
		v.Set(s)
	case reflect.Map:
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillDistinct(key, n)
		fillDistinct(elem, n)
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(key, elem)
		v.Set(m)
	default:
		panic(fmt.Sprintf("fillDistinct: unhandled kind %s", v.Kind()))
	}
}

func TestStatsWire(t *testing.T) {
	var filled, zero StatsSnapshot
	n := 0
	fillDistinct(reflect.ValueOf(&filled).Elem(), &n)
	full, err := json.MarshalIndent(filled, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	empty, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Join([][]byte{full, empty, nil}, []byte("\n"))
	if out := os.Getenv("STATS_WIRE_OUT"); out != "" {
		if err := os.WriteFile(out, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), out)
		return
	}
	want, err := os.ReadFile(statsWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/v1/stats payload moved\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotLoadsEveryCounter: Snapshot is telemetry.Load plus gauge
// assignments, so a cell it skipped, or a gauge line that overwrote a counter,
// would show nowhere else. Every live cell gets a distinct value, every gauge
// but the (empty) queue's depth is driven off zero, and the snapshot must
// carry all of them.
func TestSnapshotLoadsEveryCounter(t *testing.T) {
	s := New(Config{Workers: 1, BreakerThreshold: 1, JournalPath: filepath.Join(t.TempDir(), "journal.jsonl")})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer s.Close(ctx)
	if _, err := s.Do(ctx, Request{Source: fastProgram, Entry: "main", Threads: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
	s.ReportCorruption(errors.New("injected"))
	s.degrade(errors.New("injected"))
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.queueHighWater.Store(1) // the worker may have taken the job before its depth was read

	live := reflect.ValueOf(&s.ctr).Elem()
	for i := 0; i < live.NumField(); i++ {
		if c, ok := live.Field(i).Addr().Interface().(*atomic.Int64); ok {
			c.Store(int64(1000 + i))
		}
	}
	snap := reflect.ValueOf(s.Snapshot())
	for i := 0; i < snap.NumField(); i++ {
		name, got := snap.Type().Field(i).Name, snap.Field(i)
		if _, cell := live.Field(i).Addr().Interface().(*atomic.Int64); cell {
			if got.Int() != int64(1000+i) {
				t.Errorf("counter %s = %d, want %d", name, got.Int(), 1000+i)
			}
		} else if got.IsZero() && name != "QueueDepth" {
			t.Errorf("gauge %s is zero", name)
		}
	}
}
