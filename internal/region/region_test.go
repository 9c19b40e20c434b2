package region

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
)

// grid builds a layout with a deterministic hand arrangement:
//
//	rows 0..3, sites 0..40
//	row-spanning fixed blockage at x=18..20 on rows 0..3
//	cells: a(0,0,4x1) b(6,0,4x2) c(24,1,4x1) d(30,0,3x3) target t(10,0,3x1)
func grid() (*model.Layout, []bool) {
	l := &model.Layout{Name: "grid", NumSitesX: 40, NumRows: 4, RowHeight: 8}
	add := func(name string, x, y, w, h int, fixed bool) {
		p := model.ParityAny
		if h%2 == 0 {
			p = model.ParityEven
		}
		l.Cells = append(l.Cells, model.Cell{
			ID: len(l.Cells), Name: name, X: x, Y: y, GX: x, GY: y, W: w, H: h,
			Parity: p, Fixed: fixed,
		})
	}
	add("a", 0, 0, 4, 1, false)   // 0
	add("b", 6, 0, 4, 2, false)   // 1
	add("blk", 18, 0, 2, 4, true) // 2
	add("c", 24, 1, 4, 1, false)  // 3
	add("d", 30, 0, 3, 3, false)  // 4
	add("t", 10, 0, 3, 1, false)  // 5 target (unplaced)
	placed := []bool{true, true, true, true, true, false}
	return l, placed
}

func TestExtractSegmentsPreferTargetRun(t *testing.T) {
	l, placed := grid()
	// Window covering the whole die: the blockage splits each row into
	// [0,18) and [20,40). The target's desired center (x=11) lies in the
	// left run, so that run is chosen even though [20,40) is longer.
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(0, 0, 40, 4))
	if len(r.Segments) != 4 {
		t.Fatalf("segments = %d, want 4", len(r.Segments))
	}
	for i, seg := range r.Segments {
		if seg.Lo != 0 || seg.Hi != 18 {
			t.Fatalf("segment %d = [%d,%d), want [0,18)", i, seg.Lo, seg.Hi)
		}
	}
	// localCells must be a and b (c and d live right of the blockage and
	// become obstacles that do not intersect [0,18)).
	if len(r.Cells) != 2 {
		t.Fatalf("localCells = %d, want 2", len(r.Cells))
	}
	ids := []int{r.Cells[0].ID, r.Cells[1].ID}
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("localCell IDs = %v, want [0 1]", ids)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractFallsBackToLongestRun(t *testing.T) {
	l, placed := grid()
	// Move the target's desired position onto the blockage (x=18..20):
	// no run contains it, so the longest run [20,40) is chosen.
	l.Cells[5].GX = 18
	l.Cells[5].W = 2
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(0, 0, 40, 4))
	for i, seg := range r.Segments {
		if seg.Lo != 20 || seg.Hi != 40 {
			t.Fatalf("segment %d = [%d,%d), want [20,40)", i, seg.Lo, seg.Hi)
		}
	}
}

func TestExtractWindowOnLeftSide(t *testing.T) {
	l, placed := grid()
	// Window covering only the left of the blockage: run [0,18).
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(0, 0, 18, 2))
	for _, seg := range r.Segments {
		if seg.Lo != 0 || seg.Hi != 18 {
			t.Fatalf("segment = [%d,%d), want [0,18)", seg.Lo, seg.Hi)
		}
	}
	// a fits (row 0); b spans rows 0..1, contained; both localCells.
	if len(r.Cells) != 2 || r.Cells[0].ID != 0 || r.Cells[1].ID != 1 {
		t.Fatalf("localCells = %+v, want a and b", r.Cells)
	}
	seg0 := r.SegmentAt(0)
	if len(seg0.Cells) != 2 {
		t.Fatalf("row 0 should hold 2 localCells, got %d", len(seg0.Cells))
	}
	seg1 := r.SegmentAt(1)
	if len(seg1.Cells) != 1 || r.Cells[seg1.Cells[0]].ID != 1 {
		t.Fatalf("row 1 should hold only b")
	}
}

func TestExtractPartiallyContainedCellBecomesObstacle(t *testing.T) {
	l, placed := grid()
	// Window cutting cell d (3 rows tall) at its waist: d is not contained,
	// so it must act as an obstacle shrinking the rows it crosses.
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(20, 0, 20, 2))
	// d occupies x [30,33): longest free run right of the blockage is
	// [20,30) for rows 0..1.
	for _, seg := range r.Segments {
		if seg.Lo != 20 || seg.Hi != 30 {
			t.Fatalf("segment = [%d,%d), want [20,30)", seg.Lo, seg.Hi)
		}
	}
	for _, lc := range r.Cells {
		if lc.ID == 4 {
			t.Fatal("cell d must not be a localCell")
		}
	}
}

func TestExtractIgnoresUnplacedCells(t *testing.T) {
	l, placed := grid()
	placed[0] = false // a unplaced: invisible to the region
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(0, 0, 18, 1))
	for _, lc := range r.Cells {
		if lc.ID == 0 {
			t.Fatal("unplaced cell a leaked into the region")
		}
	}
}

func TestExtractDensity(t *testing.T) {
	l, placed := grid()
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(0, 0, 18, 2))
	// capacity = 2 rows × 18 sites = 36; used = a(4) + b(8) + target(3).
	want := 15.0 / 36.0
	if r.Density < want-1e-9 || r.Density > want+1e-9 {
		t.Fatalf("density = %v, want %v", r.Density, want)
	}
}

func TestCellsInRows(t *testing.T) {
	l, placed := grid()
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(20, 0, 20, 4))
	got := r.CellsInRows(1, 1)
	// Row 1 holds c and d.
	if len(got) != 2 {
		t.Fatalf("CellsInRows(1,1) = %v, want two cells", got)
	}
	got = r.CellsInRows(3, 1)
	// Row 3: nothing (d spans rows 0..2, c row 1).
	if len(got) != 0 {
		t.Fatalf("CellsInRows(3,1) = %v, want empty", got)
	}
}

func TestRegionClone(t *testing.T) {
	l, placed := grid()
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(0, 0, 40, 4))
	cp := r.Clone()
	if len(cp.Cells) > 0 {
		cp.Cells[0].X = 999
		if r.Cells[0].X == 999 {
			t.Fatal("Clone shares cell storage")
		}
	}
	if len(cp.Segments) > 0 && len(cp.Segments[0].Cells) > 0 {
		cp.Segments[0].Cells[0] = 77
		if r.Segments[0].Cells[0] == 77 {
			t.Fatal("Clone shares segment lists")
		}
	}
}

func TestIndexQueryMatchesBruteForce(t *testing.T) {
	spec := gen.Small(500, 0.5, 21)
	l, err := spec.Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(l, 16, 2, nil)
	wins := []geom.Rect{
		geom.NewRect(0, 0, 30, 6),
		geom.NewRect(l.NumSitesX/2, l.NumRows/2, 40, 8),
		geom.NewRect(l.NumSitesX-10, l.NumRows-3, 20, 10), // clipped
	}
	for _, win := range wins {
		got := map[int]bool{}
		for _, id := range idx.Query(win, nil) {
			got[id] = true
		}
		for i := range l.Cells {
			want := l.Cells[i].Rect().Overlaps(win)
			if got[i] != want {
				t.Fatalf("win %v cell %d: got %v, want %v", win, i, got[i], want)
			}
		}
	}
}

func TestIndexUpdateTracksMoves(t *testing.T) {
	l, _ := grid()
	idx := NewIndex(l, 8, 2, nil)
	win := geom.NewRect(0, 0, 6, 1)
	in := func() bool {
		for _, id := range idx.Query(win, nil) {
			if id == 0 {
				return true
			}
		}
		return false
	}
	if !in() {
		t.Fatal("cell a should be found at its original position")
	}
	l.Cells[0].X = 25
	idx.Update(0)
	if in() {
		t.Fatal("cell a still found at old position after Update")
	}
	far := geom.NewRect(25, 0, 4, 1)
	found := false
	for _, id := range idx.Query(far, nil) {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("cell a not found at new position")
	}
	idx.Remove(0)
	if got := idx.Query(far, nil); len(got) != 0 {
		// the blockage is at x>=18 width 2: not overlapping [25,29)
		for _, id := range got {
			if id == 0 {
				t.Fatal("removed cell still indexed")
			}
		}
	}
	idx.Remove(0) // double remove must be a no-op
	idx.Add(0)
	if !slices.Contains(idx.Query(far, nil), 0) {
		t.Fatal("re-added cell lost")
	}
}

// TestIndexRandomOpsMatchBruteForce runs random Add, Remove and Update
// sequences over a generated layout with small bins, so most cells span
// several. Indexed cells move only through Update; cells out of the index
// move freely and are picked up by the next Add or Update. After every
// step, each query window gets exactly the indexed cells a brute-force
// overlap scan finds, without duplicates, which keeps the cached home bins
// honest through every re-bin.
func TestIndexRandomOpsMatchBruteForce(t *testing.T) {
	l, err := gen.Small(300, 0.6, 13).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	die := l.Die()
	move := func(id int) {
		c := &l.Cells[id]
		c.X = rng.Intn(die.W - c.W + 1)
		c.Y = rng.Intn(die.H - c.H + 1)
	}
	in := make([]bool, len(l.Cells))
	for i := range in {
		in[i] = i%3 != 0
	}
	idx := NewIndex(l, 5, 2, func(i int) bool { return in[i] })
	var got []int
	for step := 0; step < 3000; step++ {
		id := rng.Intn(len(l.Cells))
		switch op := rng.Intn(4); {
		case op == 0:
			idx.Add(id)
			in[id] = true
		case op == 1:
			idx.Remove(id)
			in[id] = false
		case op == 2:
			move(id)
			idx.Update(id)
			in[id] = true
		case !in[id]:
			move(id)
		}
		for q := 0; q < 4; q++ {
			win := geom.NewRect(rng.Intn(die.W+8)-8, rng.Intn(die.H+4)-4, 1+rng.Intn(40), 1+rng.Intn(8))
			got = idx.Query(win, got[:0])
			seen := map[int]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("step %d: window %v returned cell %d twice", step, win, id)
				}
				seen[id] = true
			}
			for i := range l.Cells {
				if want := in[i] && l.Cells[i].Rect().Overlaps(win); seen[i] != want {
					t.Fatalf("step %d: window %v cell %d (indexed %v, rect %v): returned %v, want %v",
						step, win, i, in[i], l.Cells[i].Rect(), seen[i], want)
				}
			}
		}
	}
}

func TestExtractFromRestrictsToCandidates(t *testing.T) {
	l, placed := grid()
	// Candidate list deliberately omits cell a: it must be invisible.
	r := new(Extractor).From(l, placed, 5, geom.NewRect(0, 0, 18, 1), []int{1, 2, 3, 4})
	for _, lc := range r.Cells {
		if lc.ID == 0 {
			t.Fatal("non-candidate cell appeared in region")
		}
	}
}

func TestExtractEmptyWindow(t *testing.T) {
	l, placed := grid()
	r := new(Extractor).Extract(l, placed, 5, geom.NewRect(-10, -10, 5, 5))
	if len(r.Cells) != 0 {
		t.Fatal("empty window must produce empty region")
	}
}

// extractorFixture is a generated design with every other movable cell
// placed, and a spread of windows, some reaching past the die.
func extractorFixture(t testing.TB) (*model.Layout, *Index, []bool, []geom.Rect) {
	t.Helper()
	l, err := gen.Small(1500, 0.72, 5).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	placed := make([]bool, len(l.Cells))
	for i := range placed {
		placed[i] = l.Cells[i].Fixed || i%2 == 0
	}
	die := l.Die()
	wins := make([]geom.Rect, 64)
	for i := range wins {
		wins[i] = geom.NewRect((i*53)%die.W-8, (i*17)%die.H-2, 16+(i*13)%96, 2+i%12)
	}
	return l, NewIndex(l, 32, 4, nil), placed, wins
}

// TestExtractorMatchesThrowaway checks a reused Extractor, gathering from
// an index query (From) and from a layout scan (Extract), against a fresh
// one on every call, scrambling each returned region (as a shift commit
// would) before the next call, so no state leaks between calls.
func TestExtractorMatchesThrowaway(t *testing.T) {
	l, idx, placed, wins := extractorFixture(t)
	var fromQuery, fromScan Extractor
	var cands []int
	for i, win := range wins {
		target := (i * 7) % len(l.Cells)
		cands = idx.Query(win, cands[:0])
		want := new(Extractor).From(l, placed, target, win, cands).Clone()
		for _, got := range []*Region{
			fromQuery.From(l, placed, target, win, cands),
			fromScan.Extract(l, placed, target, win),
		} {
			if !reflect.DeepEqual(got.Clone(), want) {
				t.Fatalf("window %d: reused region differs from a fresh one", i)
			}
			for si := range got.Segments {
				slices.Reverse(got.Segments[si].Cells)
			}
			for ci := range got.Cells {
				got.Cells[ci].X += 1000
			}
		}
	}
}

func TestExtractorAllocsAfterWarmUp(t *testing.T) {
	l, idx, placed, wins := extractorFixture(t)
	var x Extractor
	var cands []int
	run := func() {
		for i, win := range wins {
			cands = idx.Query(win, cands[:0])
			x.From(l, placed, (i*7)%len(l.Cells), win, cands)
		}
	}
	run() // grows every buffer to the largest window of the set
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("warm Extractor made %.1f allocations per %d extractions, want 0", allocs, len(wins))
	}
}
