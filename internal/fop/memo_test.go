package fop

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/flex-eda/flex/internal/region"
)

// randomSearch draws one search the way TestBestMatchesDenseSweep does: a
// randomized region, a target inside its window and random options.
func randomSearch(rng *rand.Rand) (*region.Region, Target, Options) {
	parities := []func(int) bool{nil, anyRow, func(y int) bool { return y%2 == 0 }, func(y int) bool { return y%2 == 1 }}
	reg := randomRegion(rng)
	win := reg.Window
	tg := Target{
		GX: win.X + rng.Intn(win.W), GY: win.Y + rng.Intn(win.H),
		W: 1 + rng.Intn(6), H: 1 + rng.Intn(4),
		ParityOK: parities[rng.Intn(len(parities))], RowHeight: 1 + rng.Intn(8),
	}
	return reg, tg, Options{Streamed: rng.Intn(2) == 0, MeasureOriginalShift: rng.Intn(8) == 0}
}

// cloneRegion deep-copies reg, so a mutation leaves the original intact.
func cloneRegion(reg *region.Region) *region.Region {
	c := *reg
	c.Cells = slices.Clone(reg.Cells)
	c.Segments = slices.Clone(reg.Segments)
	for i := range c.Segments {
		c.Segments[i].Cells = slices.Clone(reg.Segments[i].Cells)
	}
	return &c
}

// TestMemoReplayMatchesBest: a search recorded in one memo and replayed
// from a memo built on it returns Best's Candidate and charges Best's
// Stats, every field; changing any one input Best reads changes the key,
// renumbering cell IDs does not; the record holds no pointers; and the
// heap a memo grows stays within its ApproxBytes.
func TestMemoReplayMatchesBest(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	var f Finder
	for iter := 0; iter < 600; iter++ {
		reg, tg, opt := randomSearch(rng)
		var want Stats
		wc := f.Best(reg, tg, opt, &want)

		rec := NewMemo(nil)
		var recSt Stats
		if c := rec.Best(&f, reg, tg, opt, &recSt); c != wc || recSt != want {
			t.Fatalf("iter %d: recording run %+v %+v, Best %+v %+v", iter, c, recSt, wc, want)
		}
		rec.Seal()
		replay := NewMemo(rec)
		var got Stats
		// A Finder that never searched proves the replay does not search.
		var idle Finder
		gc := replay.Best(&idle, reg, tg, opt, &got)
		if gc != wc || got != want {
			t.Fatalf("iter %d: replay %+v %+v, Best %+v %+v", iter, gc, got, wc, want)
		}
		if rec.Misses() != 1 || rec.Hits() != 0 || replay.Hits() != 1 || replay.Misses() != 0 || len(replay.recs) != 1 {
			t.Fatalf("iter %d: recording %d/%d and replay %d/%d hits/misses, replay holds %d",
				iter, rec.Hits(), rec.Misses(), replay.Hits(), replay.Misses(), len(replay.recs))
		}
		if idle.order != nil {
			t.Fatalf("iter %d: the replay searched", iter)
		}
		if iter%10 == 0 {
			checkKeySensitivity(t, iter, reg, tg, opt)
		}
	}

	var nilMemo *Memo
	var plain, through Stats
	reg, tg, opt := randomSearch(rng)
	if nilMemo.Best(&f, reg, tg, opt, &through) != f.Best(reg, tg, opt, &plain) || through != plain {
		t.Fatal("a nil memo does not run Best")
	}

	for _, typ := range []reflect.Type{reflect.TypeFor[memoKey](), reflect.TypeFor[memoRec]()} {
		if p := pointerIn(typ); p != "" {
			t.Errorf("%v holds a pointer at %s: the collector would scan every record", typ, p)
		}
	}

	for _, reserve := range []int{0, 1000, 4000} {
		grown, m := heapGrowth(2000, reserve)
		if grown > m.ApproxBytes() {
			t.Errorf("reserve %d: %d records grew the heap by %d bytes, ApproxBytes says %d",
				reserve, len(m.recs), grown, m.ApproxBytes())
		}
		runtime.KeepAlive(m)
	}
}

// checkKeySensitivity changes each input Best reads in turn and requires
// a new key, then renumbers the cell IDs and requires the same one.
func checkKeySensitivity(t *testing.T, iter int, reg *region.Region, tg Target, opt Options) {
	t.Helper()
	var m Memo
	base := m.key(reg, tg, opt)
	type change struct {
		name string
		do   func(r *region.Region, tg *Target, o *Options)
	}
	changes := []change{
		{"target GX", func(_ *region.Region, tg *Target, _ *Options) { tg.GX++ }},
		{"target GY", func(_ *region.Region, tg *Target, _ *Options) { tg.GY++ }},
		{"target W", func(_ *region.Region, tg *Target, _ *Options) { tg.W++ }},
		{"target H", func(_ *region.Region, tg *Target, _ *Options) { tg.H++ }},
		{"row height", func(_ *region.Region, tg *Target, _ *Options) { tg.RowHeight++ }},
		{"parity rule", func(r *region.Region, tg *Target, _ *Options) {
			allowed := tg.ParityOK
			first := r.Window.Y // the first candidate row: every window fits a target
			tg.ParityOK = func(y int) bool {
				ok := allowed == nil || allowed(y)
				return ok != (y == first)
			}
		}},
		{"streamed", func(_ *region.Region, _ *Target, o *Options) { o.Streamed = !o.Streamed }},
		{"original shift", func(_ *region.Region, _ *Target, o *Options) { o.MeasureOriginalShift = !o.MeasureOriginalShift }},
		{"window X", func(r *region.Region, _ *Target, _ *Options) { r.Window.X++ }},
		{"window Y", func(r *region.Region, _ *Target, _ *Options) { r.Window.Y++ }},
		{"window W", func(r *region.Region, _ *Target, _ *Options) { r.Window.W++ }},
		{"window H", func(r *region.Region, _ *Target, _ *Options) { r.Window.H++ }},
		{"segment row", func(r *region.Region, _ *Target, _ *Options) { r.Segments[len(r.Segments)/2].Row++ }},
		{"segment lo", func(r *region.Region, _ *Target, _ *Options) { r.Segments[0].Lo-- }},
		{"segment hi", func(r *region.Region, _ *Target, _ *Options) { r.Segments[len(r.Segments)-1].Hi++ }},
		{"segment count", func(r *region.Region, _ *Target, _ *Options) { r.Segments = r.Segments[:len(r.Segments)-1] }},
	}
	if tg.H > 1 {
		// Shrinking the target is a different input too (H grows above).
		changes = append(changes, change{"target H down", func(_ *region.Region, tg *Target, _ *Options) { tg.H-- }})
	}
	if n := len(reg.Cells); n > 0 {
		k := n / 2
		changes = append(changes,
			change{"cell X", func(r *region.Region, _ *Target, _ *Options) { r.Cells[k].X++ }},
			change{"cell Y", func(r *region.Region, _ *Target, _ *Options) { r.Cells[k].Y++ }},
			change{"cell GX", func(r *region.Region, _ *Target, _ *Options) { r.Cells[k].GX-- }},
			change{"cell W", func(r *region.Region, _ *Target, _ *Options) { r.Cells[k].W++ }},
			change{"cell H", func(r *region.Region, _ *Target, _ *Options) { r.Cells[k].H++ }},
			change{"cell count", func(r *region.Region, _ *Target, _ *Options) { r.Cells = r.Cells[:n-1] }},
		)
		for si := range reg.Segments {
			if len(reg.Segments[si].Cells) > 0 {
				changes = append(changes,
					change{"segment cells", func(r *region.Region, _ *Target, _ *Options) {
						r.Segments[si].Cells = r.Segments[si].Cells[1:]
					}},
					change{"segment cell index", func(r *region.Region, _ *Target, _ *Options) {
						r.Segments[si].Cells[0] = n
					}},
				)
				break
			}
		}
	}
	for _, c := range changes {
		r, tg2, opt2 := cloneRegion(reg), tg, opt
		c.do(r, &tg2, &opt2)
		if m.key(r, tg2, opt2) == base {
			t.Fatalf("iter %d: changing the %s keeps the key", iter, c.name)
		}
	}
	r := cloneRegion(reg)
	for i := range r.Cells {
		r.Cells[i].ID = 7919 * (i + 1)
	}
	if m.key(r, tg, opt) != base {
		t.Fatalf("iter %d: renumbering cell IDs changes the key", iter)
	}
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

// heapGrowth records n random searches into a memo reserved for reserve
// and returns the live-heap growth the memo accounts for. Everything else
// the searches allocate is garbage by the second measurement.
func heapGrowth(n, reserve int) (int64, *Memo) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	m := NewMemo(nil)
	m.Reserve(reserve)
	record(m, n)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) - int64(before), m
}

// record runs n distinct random searches through m on a throwaway Finder.
func record(m *Memo, n int) {
	rng := rand.New(rand.NewSource(int64(n)))
	var f Finder
	for len(m.recs) < n {
		reg, tg, opt := randomSearch(rng)
		m.Best(&f, reg, tg, opt, nil)
	}
}
