// Package telemetry holds what the service's and the cluster's counter blocks
// share. Each block is one struct generic over its cell type, declared beside
// its JSON tags: instantiated at atomic.Int64 it is the live cells the code
// updates, at int64 the snapshot an endpoint renders, and Load is the only
// mapping between the two.
package telemetry

import (
	"reflect"
	"sync/atomic"
)

var cellType = reflect.TypeOf(atomic.Int64{})

// Load copies every atomic.Int64 field of *live into the field of *snap at
// the same index, which must be an int64: live and snap are pointers to two
// instantiations of one generic struct. Fields of any other type — the
// gauges, which have no cell because their live value is held elsewhere — are
// left for the caller to set. Each cell is exact; the snapshot as a whole is
// only approximately one instant, which is fine for monitoring.
func Load(live, snap any) {
	lv, sv := reflect.ValueOf(live).Elem(), reflect.ValueOf(snap).Elem()
	for i := 0; i < lv.NumField(); i++ {
		if f := lv.Field(i); f.Type() == cellType {
			sv.Field(i).SetInt(f.Addr().Interface().(*atomic.Int64).Load())
		}
	}
}
