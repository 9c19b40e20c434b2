package mgl

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/flex-eda/flex/internal/model"
)

// TestTrailRecordBounds: the step records hold no pointer, so the collector
// never scans them, and the heap recorded trails keep stays within their
// ApproxBytes, for trails that replayed nothing and trails that replayed
// every step. Eight trails are measured at once, so that a stray runtime
// allocation does not decide the comparison.
func TestTrailRecordBounds(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[step](), reflect.TypeFor[move]()} {
		if p := pointerIn(typ); p != "" {
			t.Errorf("%v holds a pointer at %s: the collector would scan every record", typ, p)
		}
	}
	l := testLayout(t, 600, 0.7, 41)
	cfg := Config{Streamed: true, SlidingWindow: 8}
	var from *Trail // stays live while the replaying trails record
	for _, name := range []string{"recorded", "replayed"} {
		grown, trails := trailGrowth(l, cfg, from, 8)
		var bound int64
		for _, tr := range trails {
			if tr.Ran()+tr.Replayed() != len(l.MovableIDs()) {
				t.Fatalf("%s: %d steps for %d targets", name, tr.Ran()+tr.Replayed(), len(l.MovableIDs()))
			}
			if from != nil && tr.Ran() != 0 {
				t.Fatalf("a run of the recorded input ran %d steps, want all replayed", tr.Ran())
			}
			bound += tr.ApproxBytes()
		}
		if grown > bound {
			t.Errorf("%s: %d trails grew the heap by %d bytes, ApproxBytes says %d", name, len(trails), grown, bound)
		}
		from = trails[0]
	}
	runtime.KeepAlive(from)
}

// trailGrowth records n sealed trails of l's run replaying from, and
// returns the live-heap growth they keep. Everything else the runs
// allocate is garbage by the second measurement.
func trailGrowth(l *model.Layout, cfg Config, from *Trail, n int) (int64, []*Trail) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	trails := make([]*Trail, n)
	for i := range trails {
		trails[i] = NewTrail(from)
		cfg.Trail = trails[i]
		Legalize(l, cfg)
		trails[i].Seal()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) - int64(before), trails
}

// pointerIn names the first pointer-shaped part of typ, or "" when it has
// none.
func pointerIn(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Array:
		return pointerIn(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerIn(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "." + p
			}
		}
		return ""
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return ""
	}
	return typ.Kind().String()
}
