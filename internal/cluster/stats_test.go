package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

// testdata/cluster_stats_wire.golden pins the /v1/cluster/stats payload the
// way internal/service/testdata/stats_wire.golden pins /v1/stats:
// json.MarshalIndent of a Stats whose every field holds a distinct non-zero
// value, then json.Marshal of the zero value. Like that file it was written at
// 7767f7b and is never regenerated from the code under test; on the commit
// whose bytes are the reference,
//
//	CLUSTER_STATS_WIRE_OUT=$PWD/internal/cluster/testdata/cluster_stats_wire.golden go test -run TestClusterStatsWire ./internal/cluster/
//
// writes it instead of comparing against it.
const clusterStatsWireGolden = "testdata/cluster_stats_wire.golden"

// fillDistinct sets every field of the flat struct v to a distinct non-zero
// value: integers count up from *n, strings are "s<n>".
func fillDistinct(v reflect.Value, n *int) {
	for i := 0; i < v.NumField(); i++ {
		*n++
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(*n))
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", *n))
		default:
			panic(fmt.Sprintf("fillDistinct: unhandled kind %s", f.Kind()))
		}
	}
}

func TestClusterStatsWire(t *testing.T) {
	var filled, zero Stats
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
	if out := os.Getenv("CLUSTER_STATS_WIRE_OUT"); out != "" {
		if err := os.WriteFile(out, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), out)
		return
	}
	want, err := os.ReadFile(clusterStatsWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/v1/cluster/stats payload moved\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotLoadsEveryCounter: Stats is telemetry.Load plus the two view
// gauges. Every live cell gets a distinct value and each must arrive, with
// the gauges still set beside them.
func TestSnapshotLoadsEveryCounter(t *testing.T) {
	net := NewLoopNet()
	n := tnode(t, net, "a", []string{"a", "b"}, nil)
	defer n.Close(context.Background())

	live := reflect.ValueOf(&n.ctr).Elem()
	for i := 0; i < live.NumField(); i++ {
		if c, ok := live.Field(i).Addr().Interface().(*atomic.Int64); ok {
			c.Store(int64(1000 + i))
		}
	}
	st := reflect.ValueOf(n.Stats())
	for i := 0; i < st.NumField(); i++ {
		name, got := st.Type().Field(i).Name, st.Field(i)
		if _, cell := live.Field(i).Addr().Interface().(*atomic.Int64); cell {
			if got.Int() != int64(1000+i) {
				t.Errorf("counter %s = %d, want %d", name, got.Int(), 1000+i)
			}
		} else if got.IsZero() {
			t.Errorf("gauge %s is zero", name)
		}
	}
}
