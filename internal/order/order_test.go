package order

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/region"
)

func layout(t *testing.T) *model.Layout {
	t.Helper()
	l, err := gen.Small(200, 0.5, 55).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fixedDensity adapts a static density function: its estimates never go
// stale, so it names no estimate window.
type fixedDensity func(id int) float64

func (f fixedDensity) Estimate(id int) float64 { return f(id) }
func (fixedDensity) Window(int) geom.Rect      { return geom.Rect{} }

func TestSizeOrderDescending(t *testing.T) {
	l := layout(t)
	s := NewSizeOrder(l)
	if s.Remaining() != len(l.MovableIDs()) {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	prev := 1 << 60
	count := 0
	for {
		id, ok := s.Next()
		if !ok {
			break
		}
		a := l.Cells[id].Area()
		if a > prev {
			t.Fatalf("area increased: %d after %d", a, prev)
		}
		prev = a
		count++
	}
	if count != len(l.MovableIDs()) {
		t.Fatalf("yielded %d targets", count)
	}
	if _, ok := s.Peek(); ok {
		t.Fatal("Peek after exhaustion should fail")
	}
}

func TestSizeOrderPeekMatchesNext(t *testing.T) {
	l := layout(t)
	s := NewSizeOrder(l)
	for i := 0; i < 10; i++ {
		p, ok := s.Peek()
		if !ok {
			break
		}
		n, _ := s.Next()
		if p != n {
			t.Fatalf("Peek %d != Next %d", p, n)
		}
	}
}

func TestSlidingWindowReordersByDensity(t *testing.T) {
	l := layout(t)
	// Synthetic density: higher for higher cell IDs.
	density := fixedDensity(func(id int) float64 { return float64(id) })
	sw := NewSlidingWindow(l, 6, density)
	plain := NewSizeOrder(l)

	// First target identical (C_cur of the initial window).
	a, _ := sw.Next()
	b, _ := plain.Next()
	if a != b {
		t.Fatalf("first target differs: %d vs %d", a, b)
	}
	// Second target is the fixed C_next: also identical.
	a, _ = sw.Next()
	b, _ = plain.Next()
	if a != b {
		t.Fatalf("second target (C_next) differs: %d vs %d", a, b)
	}
	// From here on the window tail is density-sorted, so the sliding
	// window must eventually diverge from the plain order.
	diverged := false
	for i := 0; i < 40; i++ {
		x, ok1 := sw.Next()
		y, ok2 := plain.Next()
		if !ok1 || !ok2 {
			break
		}
		if x != y {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("sliding window never reordered anything")
	}
}

func TestSlidingWindowYieldsAllTargets(t *testing.T) {
	l := layout(t)
	sw := NewSlidingWindow(l, 8, fixedDensity(func(int) float64 { return 0 }))
	seen := map[int]bool{}
	for {
		id, ok := sw.Next()
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("target %d yielded twice", id)
		}
		seen[id] = true
	}
	if len(seen) != len(l.MovableIDs()) {
		t.Fatalf("yielded %d of %d targets", len(seen), len(l.MovableIDs()))
	}
}

func TestDensityEstimator(t *testing.T) {
	l := layout(t)
	idx := region.NewIndex(l, 32, 4, nil)
	est := NewDensityEstimator(l, idx, 64, 8)
	ids := l.MovableIDs()
	for _, id := range ids[:10] {
		d := est.Estimate(id)
		if d <= 0 || d > 4 {
			t.Fatalf("density estimate %v out of range for cell %d", d, id)
		}
	}
}

// countingDensity gives cell id the estimate window [id, id+1) × [0, 1)
// and counts how often each estimate is computed.
type countingDensity map[int]int

func (c countingDensity) Estimate(id int) float64 { c[id]++; return float64(id % 7) }
func (countingDensity) Window(id int) geom.Rect   { return geom.NewRect(id, 0, 1, 1) }

func TestSlidingWindowCachesUntilCommitOverlaps(t *testing.T) {
	l := layout(t)
	calls := countingDensity{}
	sw := NewSlidingWindow(l, 8, calls)
	sw.Next()
	sw.Next()
	for id, n := range calls {
		if n != 1 {
			t.Fatalf("cell %d estimated %d times across two pops, want 1", id, n)
		}
	}
	// A commit far from every estimate window keeps every estimate.
	sw.Committed(geom.NewRect(-10, 5, 3, 3))
	tail := append([]int(nil), sw.queue[1:6]...)
	sw.Next()
	for _, id := range tail[1:] {
		if calls[id] != 1 {
			t.Fatalf("cell %d re-estimated with no overlapping commit", id)
		}
	}
	// A commit over one entry's window drops exactly that estimate.
	hit := sw.queue[3]
	sw.Committed(geom.NewRect(hit, 0, 1, 1))
	if _, ok := sw.Cached(hit); ok {
		t.Fatalf("cell %d still cached after an overlapping commit", hit)
	}
	sw.Next()
	if calls[hit] != 2 {
		t.Fatalf("cell %d estimated %d times, want 2", hit, calls[hit])
	}
}
