package fop

import (
	"math/rand"
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

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
			if seg := r.SegmentAt(row); seg != nil {
				seg.Cells = append(seg.Cells, li)
			}
		}
	}
	r.SortSegmentCells()
	return r
}

func anyRow(int) bool { return true }

// commitCost plays a candidate through the real shifting algorithm and
// returns the exact added displacement, or ok=false when infeasible.
func commitCost(reg *region.Region, t Target, c Candidate) (int, bool) {
	cp := reg.Clone()
	p := shift.Placement{TX: c.X, TY: c.Y, TW: t.W, TH: t.H, Boundary2: c.Boundary2}
	if !new(shift.Shifter).SACS(cp, p, nil) {
		return 0, false
	}
	cost := geom.Abs(c.X-t.GX) + t.RowHeight*geom.Abs(c.Y-t.GY)
	for i := range cp.Cells {
		cost += geom.Abs(cp.Cells[i].X-cp.Cells[i].GX) - geom.Abs(reg.Cells[i].X-reg.Cells[i].GX)
	}
	// Verify the committed layout is overlap-free, including the target.
	tr := geom.NewRect(c.X, c.Y, t.W, t.H)
	for i := range cp.Cells {
		if cp.Cells[i].Rect().Overlaps(tr) {
			return 0, false
		}
		for j := i + 1; j < len(cp.Cells); j++ {
			if cp.Cells[i].Rect().Overlaps(cp.Cells[j].Rect()) {
				return 0, false
			}
		}
	}
	return cost, true
}

// bruteBest exhaustively scans all rows, boundaries and x positions using
// the real shifting algorithm as the cost oracle.
func bruteBest(reg *region.Region, t Target) (int, bool) {
	best, found := 1<<60, false
	win := reg.Window
	for y := win.Y; y+t.H <= win.Y+win.H; y++ {
		if !t.ParityOK(y) {
			continue
		}
		var f Finder
		for _, b2 := range f.slotBoundaries(reg, y, t.H) {
			for x := win.X; x+t.W <= win.X+win.W; x++ {
				cost, ok := commitCost(reg, t, Candidate{X: x, Y: y, Boundary2: b2, Feasible: true})
				if ok && cost < best {
					best, found = cost, true
				}
			}
		}
	}
	return best, found
}

func TestBestEmptyRegion(t *testing.T) {
	win := geom.NewRect(0, 0, 40, 2)
	reg := buildRegion(win, [2]int{0, 40}, nil)
	reg.TargetW, reg.TargetH = 4, 1
	tg := Target{GX: 10, GY: 0, W: 4, H: 1, ParityOK: anyRow, RowHeight: 8}
	var st Stats
	c := Best(reg, tg, Options{}, &st)
	if !c.Feasible {
		t.Fatal("empty region should be feasible")
	}
	if c.X != 10 || c.Y != 0 || c.Cost != 0 {
		t.Fatalf("got (%d,%d) cost %d, want (10,0) cost 0", c.X, c.Y, c.Cost)
	}
	if st.InsertionPoints == 0 || st.CandidateRows != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBestPushesNeighbours(t *testing.T) {
	win := geom.NewRect(0, 0, 30, 1)
	cells := []region.LocalCell{
		{ID: 0, X: 8, GX: 8, Y: 0, W: 6, H: 1},
	}
	reg := buildRegion(win, [2]int{0, 30}, cells)
	// Target wants x=10, overlapping the cell; optimum balances target
	// displacement against pushing.
	tg := Target{GX: 10, GY: 0, W: 4, H: 1, ParityOK: anyRow, RowHeight: 8}
	c := Best(reg, tg, Options{}, nil)
	if !c.Feasible {
		t.Fatal("infeasible")
	}
	got, ok := commitCost(reg, tg, c)
	if !ok {
		t.Fatal("commit failed")
	}
	if got != c.Cost {
		t.Fatalf("predicted cost %d, committed cost %d", c.Cost, got)
	}
	want, found := bruteBest(reg, tg)
	if !found || c.Cost != want {
		t.Fatalf("cost %d, brute-force best %d", c.Cost, want)
	}
}

func TestBestMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 40; iter++ {
		win := geom.NewRect(0, 0, 26, 3)
		var cells []region.LocalCell
		// Random non-overlapping single/multi-row cells per row band.
		cursor := [3]int{}
		for k := 0; k < 5; k++ {
			y := rng.Intn(3)
			h := 1
			if y < 2 && rng.Intn(3) == 0 {
				h = 2
			}
			w := 2 + rng.Intn(3)
			x := cursor[y] + rng.Intn(3)
			for r := y; r < y+h; r++ {
				if cursor[r] > x {
					x = cursor[r]
				}
			}
			if x+w > 24 {
				continue
			}
			gx := x + rng.Intn(7) - 3
			if gx < 0 {
				gx = 0
			}
			cells = append(cells, region.LocalCell{ID: len(cells), X: x, GX: gx, Y: y, W: w, H: h})
			for r := y; r < y+h; r++ {
				cursor[r] = x + w
			}
		}
		reg := buildRegion(win, [2]int{0, 26}, cells)
		tg := Target{
			GX: rng.Intn(20), GY: rng.Intn(3),
			W: 2 + rng.Intn(3), H: 1 + rng.Intn(2),
			ParityOK: anyRow, RowHeight: 8,
		}
		for _, streamed := range []bool{false, true} {
			c := Best(reg, tg, Options{Streamed: streamed}, nil)
			want, found := bruteBest(reg, tg)
			if c.Feasible != found {
				t.Fatalf("iter %d streamed=%v: feasible=%v brute=%v", iter, streamed, c.Feasible, found)
			}
			if !found {
				continue
			}
			if c.Cost != want {
				t.Fatalf("iter %d streamed=%v: cost %d, brute-force %d (cand %+v)", iter, streamed, c.Cost, want, c)
			}
			got, ok := commitCost(reg, tg, c)
			if !ok || got != c.Cost {
				t.Fatalf("iter %d: commit cost %d ok=%v, predicted %d", iter, got, ok, c.Cost)
			}
		}
	}
}

func TestStreamedAndOriginalAgree(t *testing.T) {
	spec := gen.Small(400, 0.65, 17)
	l, err := spec.GenerateLegal(1.0)
	if err != nil {
		t.Fatal(err)
	}
	placed := make([]bool, len(l.Cells))
	for i := range placed {
		placed[i] = true
	}
	rng := rand.New(rand.NewSource(3))
	movable := l.MovableIDs()
	checked := 0
	for iter := 0; iter < 30; iter++ {
		id := movable[rng.Intn(len(movable))]
		placed[id] = false
		tc := &l.Cells[id]
		win := geom.NewRect(tc.X-24, tc.Y-3, 48+tc.W, 6+tc.H)
		reg := new(region.Extractor).Extract(l, placed, id, win)
		placed[id] = true
		tg := Target{GX: tc.GX, GY: tc.GY, W: tc.W, H: tc.H,
			ParityOK: tc.Parity.AllowsRow, RowHeight: l.RowHeight}
		var stO, stS Stats
		a := Best(reg, tg, Options{Streamed: false}, &stO)
		b := Best(reg, tg, Options{Streamed: true}, &stS)
		if a != b {
			t.Fatalf("iter %d: original %+v != streamed %+v", iter, a, b)
		}
		if a.Feasible {
			checked++
			got, ok := commitCost(reg, tg, a)
			if !ok {
				t.Fatalf("iter %d: commit infeasible for %+v", iter, a)
			}
			if got != a.Cost {
				t.Fatalf("iter %d: commit cost %d != predicted %d", iter, got, a.Cost)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("too few feasible cases: %d", checked)
	}
}

func TestParityRestrictsRows(t *testing.T) {
	win := geom.NewRect(0, 0, 30, 4)
	reg := buildRegion(win, [2]int{0, 30}, nil)
	evenOnly := func(y int) bool { return y%2 == 0 }
	tg := Target{GX: 5, GY: 1, W: 3, H: 2, ParityOK: evenOnly, RowHeight: 8}
	var st Stats
	c := Best(reg, tg, Options{}, &st)
	if !c.Feasible {
		t.Fatal("infeasible")
	}
	if c.Y%2 != 0 {
		t.Fatalf("chose odd row %d for even-parity cell", c.Y)
	}
	if st.CandidateRows != 2 { // rows 0 and 2 (row 3 cannot fit h=2)
		t.Fatalf("candidate rows = %d, want 2", st.CandidateRows)
	}
}

func TestMeasureOriginalShift(t *testing.T) {
	win := geom.NewRect(0, 0, 30, 1)
	cells := []region.LocalCell{{ID: 0, X: 8, GX: 8, Y: 0, W: 6, H: 1}}
	reg := buildRegion(win, [2]int{0, 30}, cells)
	tg := Target{GX: 10, GY: 0, W: 4, H: 1, ParityOK: anyRow, RowHeight: 8}
	var st Stats
	Best(reg, tg, Options{MeasureOriginalShift: true}, &st)
	if st.OriginalShift.Passes == 0 {
		t.Fatal("original shifting was not measured")
	}
	// Region positions must be restored.
	if reg.Cells[0].X != 8 {
		t.Fatalf("region mutated: cell at %d", reg.Cells[0].X)
	}
}

func TestStatsAddAndBetter(t *testing.T) {
	a := Stats{InsertionPoints: 2, ChainCells: 3}
	b := Stats{InsertionPoints: 5, ChainCells: 7}
	a.Add(&b)
	if a.InsertionPoints != 7 || a.ChainCells != 10 {
		t.Fatalf("Add wrong: %+v", a)
	}
	inf := Candidate{Feasible: false}
	c1 := Candidate{Feasible: true, Cost: 5, X: 1}
	c2 := Candidate{Feasible: true, Cost: 5, X: 2}
	if inf.Better(c1) || !c1.Better(inf) {
		t.Fatal("feasibility ordering wrong")
	}
	if !c1.Better(c2) || c2.Better(c1) {
		t.Fatal("tie-breaking wrong")
	}
	// Equal cost: lower y wins before x is compared.
	low := Candidate{Feasible: true, Cost: 5, X: 9, Y: 1}
	high := Candidate{Feasible: true, Cost: 5, X: 0, Y: 2}
	if !low.Better(high) || high.Better(low) {
		t.Fatal("equal-cost ties must break by lower y before lower x")
	}
}
