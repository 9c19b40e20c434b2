package shift

import (
	"math/rand"
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
)

// buildRegion hand-constructs a region with the given segments and cells.
func buildRegion(win geom.Rect, segSpan [2]int, cells []region.LocalCell) *region.Region {
	r := &region.Region{Window: win}
	r.Segments = make([]region.Segment, win.H)
	for i := range r.Segments {
		r.Segments[i] = region.Segment{Row: win.Y + i, Lo: segSpan[0], Hi: segSpan[1]}
	}
	r.Cells = cells
	for li := range r.Cells {
		c := &r.Cells[li]
		for row := c.Y; row < c.Y+c.H; row++ {
			seg := r.SegmentAt(row)
			seg.Cells = append(seg.Cells, li)
		}
	}
	r.SortSegmentCells()
	return r
}

// checkResolved verifies the shifting postcondition: no overlap between any
// two cells, no overlap with the target, and containment in segments.
func checkResolved(t *testing.T, r *region.Region, p Placement) {
	t.Helper()
	tr := geom.NewRect(p.TX, p.TY, p.TW, p.TH)
	for i := range r.Cells {
		ci := &r.Cells[i]
		if ci.Rect().Overlaps(tr) {
			t.Fatalf("cell %d overlaps target after shift", i)
		}
		for row := ci.Y; row < ci.Y+ci.H; row++ {
			seg := r.SegmentAt(row)
			if seg == nil || ci.X < seg.Lo || ci.X+ci.W > seg.Hi {
				t.Fatalf("cell %d escaped segment in row %d", i, row)
			}
		}
		for j := i + 1; j < len(r.Cells); j++ {
			if ci.Rect().Overlaps(r.Cells[j].Rect()) {
				t.Fatalf("cells %d and %d overlap after shift", i, j)
			}
		}
	}
}

// fig6Case reproduces the mechanism of the paper's Fig. 6: the original
// algorithm's bottom-to-top traversal misses an overlap created in an
// already-visited row, needing three left-move passes, while SACS resolves
// everything in one.
func fig6Case() (*region.Region, Placement) {
	win := geom.NewRect(0, 0, 40, 3)
	cells := []region.LocalCell{
		{ID: 0, X: 18, GX: 18, Y: 1, W: 4, H: 2}, // A: overlaps target, rows 1-2
		{ID: 1, X: 12, GX: 12, Y: 0, W: 5, H: 2}, // C: rows 0-1, hit by A
		{ID: 2, X: 8, GX: 8, Y: 0, W: 4, H: 1},   // D: row 0, hit by C
	}
	r := buildRegion(win, [2]int{0, 40}, cells)
	return r, Placement{TX: 20, TY: 1, TW: 4, TH: 2}
}

func TestOriginalNeedsMultiplePasses(t *testing.T) {
	r, p := fig6Case()
	var st Stats
	if !Original(r, p, &st) {
		t.Fatal("Original reported infeasible")
	}
	checkResolved(t, r, p)
	// Left phase: 3 passes (push A, then C; D's overlap surfaces one pass
	// later; final pass confirms). Right phase: 1 pass. Total 4.
	if st.Passes != 4 {
		t.Fatalf("Original passes = %d, want 4 (3 left-move + 1 right-move)", st.Passes)
	}
	want := map[int]int{0: 16, 1: 11, 2: 7}
	for i := range r.Cells {
		if r.Cells[i].X != want[r.Cells[i].ID] {
			t.Fatalf("cell %d at %d, want %d", r.Cells[i].ID, r.Cells[i].X, want[r.Cells[i].ID])
		}
	}
}

func TestSACSSinglePass(t *testing.T) {
	r, p := fig6Case()
	var st Stats
	if !new(Shifter).SACS(r, p, &st) {
		t.Fatal("SACS reported infeasible")
	}
	checkResolved(t, r, p)
	if st.Passes != 2 {
		t.Fatalf("SACS passes = %d, want 2 (1 per phase)", st.Passes)
	}
	if st.SortedCells != 3 {
		t.Fatalf("SortedCells = %d, want 3", st.SortedCells)
	}
	want := map[int]int{0: 16, 1: 11, 2: 7}
	for i := range r.Cells {
		if r.Cells[i].X != want[r.Cells[i].ID] {
			t.Fatalf("cell %d at %d, want %d", r.Cells[i].ID, r.Cells[i].X, want[r.Cells[i].ID])
		}
	}
}

func TestRightMovePhase(t *testing.T) {
	win := geom.NewRect(0, 0, 40, 2)
	cells := []region.LocalCell{
		{ID: 0, X: 12, GX: 12, Y: 0, W: 4, H: 1}, // right of boundary, overlaps target
		{ID: 1, X: 17, GX: 17, Y: 0, W: 3, H: 1}, // chained push
	}
	r := buildRegion(win, [2]int{0, 40}, cells)
	p := Placement{TX: 10, TY: 0, TW: 5, TH: 1}
	r2 := r.Clone()
	if !Original(r, p, nil) || !new(Shifter).SACS(r2, p, nil) {
		t.Fatal("shift infeasible")
	}
	checkResolved(t, r, p)
	for i := range r.Cells {
		if r.Cells[i].X != r2.Cells[i].X {
			t.Fatalf("cell %d: original %d, sacs %d", i, r.Cells[i].X, r2.Cells[i].X)
		}
	}
	if r.Cells[0].X != 15 || r.Cells[1].X != 19 {
		t.Fatalf("right-move positions = %d,%d; want 15,19", r.Cells[0].X, r.Cells[1].X)
	}
}

func TestInfeasiblePush(t *testing.T) {
	win := geom.NewRect(0, 0, 12, 1)
	cells := []region.LocalCell{
		{ID: 0, X: 0, GX: 0, Y: 0, W: 5, H: 1},
		{ID: 1, X: 5, GX: 5, Y: 0, W: 5, H: 1},
	}
	r := buildRegion(win, [2]int{0, 12}, cells)
	// Target of width 4 cannot fit: 5+5+4 > 12.
	p := Placement{TX: 4, TY: 0, TW: 4, TH: 1}
	r2 := r.Clone()
	okO := Original(r, p, nil)
	okS := new(Shifter).SACS(r2, p, nil)
	if okO || okS {
		t.Fatalf("feasibility disagreement or false positive: original=%v sacs=%v", okO, okS)
	}
}

func TestNoOpWhenNoOverlap(t *testing.T) {
	win := geom.NewRect(0, 0, 40, 2)
	cells := []region.LocalCell{
		{ID: 0, X: 2, GX: 2, Y: 0, W: 3, H: 1},
		{ID: 1, X: 30, GX: 30, Y: 1, W: 3, H: 1},
	}
	r := buildRegion(win, [2]int{0, 40}, cells)
	p := Placement{TX: 15, TY: 0, TW: 4, TH: 2}
	var st Stats
	if !new(Shifter).SACS(r, p, &st) {
		t.Fatal("infeasible")
	}
	if st.Moves != 0 {
		t.Fatalf("moves = %d, want 0", st.Moves)
	}
	if r.Cells[0].X != 2 || r.Cells[1].X != 30 {
		t.Fatal("cells moved without overlap")
	}
}

// TestOriginalEquivalentToSACS is the core property of Sec. 4: both
// algorithms compute the same packed arrangement on realistic regions.
func TestOriginalEquivalentToSACS(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	spec := gen.Small(600, 0.72, 31)
	l, err := spec.GenerateLegal(1.0)
	if err != nil {
		t.Fatal(err)
	}
	placed := make([]bool, len(l.Cells))
	for i := range placed {
		placed[i] = true
	}
	movable := l.MovableIDs()
	cases, feasible := 0, 0
	var sh Shifter // one for every case, as an engine keeps one per run
	for iter := 0; iter < 120; iter++ {
		target := movable[rng.Intn(len(movable))]
		placed[target] = false
		tc := &l.Cells[target]
		win := geom.NewRect(tc.X-30, tc.Y-4, 60+tc.W, 8+tc.H)
		reg := new(region.Extractor).Extract(l, placed, target, win)
		placed[target] = true
		if len(reg.Cells) < 2 {
			continue
		}
		// Random target placement near its original spot.
		seg := reg.SegmentAt(tc.Y)
		if seg == nil || seg.Len() < tc.W {
			continue
		}
		tx := seg.Lo + rng.Intn(seg.Len()-tc.W+1)
		ty := tc.Y
		if ty+tc.H > reg.Window.Y+reg.Window.H {
			continue
		}
		p := Placement{TX: tx, TY: ty, TW: tc.W, TH: tc.H}
		a, b := reg.Clone(), reg.Clone()
		var sa, sb Stats
		okA := Original(a, p, &sa)
		okB := sh.SACS(b, p, &sb)
		cases++
		if okA != okB {
			t.Fatalf("iter %d: feasibility disagreement original=%v sacs=%v", iter, okA, okB)
		}
		if !okA {
			continue
		}
		feasible++
		for i := range a.Cells {
			if a.Cells[i].X != b.Cells[i].X {
				t.Fatalf("iter %d: cell %d original=%d sacs=%d", iter, i, a.Cells[i].X, b.Cells[i].X)
			}
		}
		checkResolved(t, a, p)
		if sb.Passes != 2 {
			t.Fatalf("iter %d: SACS passes = %d, want 2", iter, sb.Passes)
		}
		if sa.Passes < 2 {
			t.Fatalf("iter %d: Original passes = %d, want >= 2", iter, sa.Passes)
		}
	}
	if cases < 30 || feasible < 15 {
		t.Fatalf("property test exercised too few cases: %d cases, %d feasible", cases, feasible)
	}
}

func TestClassifySides(t *testing.T) {
	win := geom.NewRect(0, 0, 40, 3)
	cells := []region.LocalCell{
		{ID: 0, X: 2, Y: 0, W: 4, H: 1},  // left of target
		{ID: 1, X: 30, Y: 0, W: 4, H: 1}, // right of target
		{ID: 2, X: 5, Y: 2, W: 4, H: 1},  // non-target row
	}
	r := buildRegion(win, [2]int{0, 40}, cells)
	p := Placement{TX: 15, TY: 0, TW: 6, TH: 2}
	sides := classifySides(nil, r, p)
	if sides[0] != sideLeft || sides[1] != sideRight || sides[2] != sideNone {
		t.Fatalf("sides = %v", sides)
	}
	// Explicit boundary override: boundary at x=0.5, so every cell in the
	// target rows lies to its right.
	p.Boundary2 = 1
	sides = classifySides(nil, r, p)
	if sides[0] != sideRight || sides[1] != sideRight {
		t.Fatalf("override sides = %v", sides)
	}
}
