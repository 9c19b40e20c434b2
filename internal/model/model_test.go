package model

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a small hand-built layout: a 40x8 die with three movable
// cells and one fixed blockage.
func tiny() *Layout {
	l := &Layout{Name: "tiny", NumSitesX: 40, NumRows: 8, RowHeight: 8}
	add := func(name string, x, y, w, h int, p PGParity, fixed bool) {
		c := Cell{ID: len(l.Cells), Name: name, X: x, Y: y, GX: x, GY: y, W: w, H: h, Parity: p, Fixed: fixed}
		l.Cells = append(l.Cells, c)
	}
	add("a", 0, 0, 4, 1, ParityAny, false)
	add("b", 10, 0, 6, 2, ParityEven, false)
	add("c", 20, 2, 3, 3, ParityAny, false)
	add("blk", 30, 0, 5, 8, ParityAny, true)
	return l
}

func TestPGParity(t *testing.T) {
	if !ParityAny.AllowsRow(0) || !ParityAny.AllowsRow(3) {
		t.Fatal("ParityAny must allow every row")
	}
	if !ParityEven.AllowsRow(0) || ParityEven.AllowsRow(1) {
		t.Fatal("ParityEven wrong")
	}
	if ParityOdd.AllowsRow(0) || !ParityOdd.AllowsRow(3) {
		t.Fatal("ParityOdd wrong")
	}
	if ParityEven.String() != "even" || ParityOdd.String() != "odd" || ParityAny.String() != "any" {
		t.Fatal("String wrong")
	}
}

func TestLegalLayout(t *testing.T) {
	l := tiny()
	if vs := l.Check(0); len(vs) != 0 {
		t.Fatalf("expected legal layout, got %v", vs)
	}
	if !l.Legal() {
		t.Fatal("Legal() = false for a legal layout")
	}
	if l.OverlapArea() != 0 {
		t.Fatalf("OverlapArea = %d, want 0", l.OverlapArea())
	}
}

func TestCheckDetectsOverlap(t *testing.T) {
	l := tiny()
	l.Cells[0].X = 11 // a (4x1) now overlaps b (at x=10..16, rows 0..2)
	vs := l.Check(0)
	found := false
	for _, v := range vs {
		if v.Kind == "overlap" && v.CellA == 0 && v.CellB == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("overlap between cells 0 and 1 not reported: %v", vs)
	}
	if l.OverlapArea() == 0 {
		t.Fatal("OverlapArea should be positive")
	}
}

func TestCheckDetectsParityAndBounds(t *testing.T) {
	l := tiny()
	l.Cells[1].Y = 1 // even-parity cell on odd row
	vs := l.Check(0)
	kinds := map[string]bool{}
	for _, v := range vs {
		kinds[v.Kind] = true
	}
	if !kinds["pg-parity"] {
		t.Fatalf("pg-parity violation not reported: %v", vs)
	}

	l2 := tiny()
	l2.Cells[2].X = 39 // 3-wide cell sticking out of the 40-site die
	vs = l2.Check(0)
	kinds = map[string]bool{}
	for _, v := range vs {
		kinds[v.Kind] = true
	}
	if !kinds["out-of-die"] {
		t.Fatalf("out-of-die violation not reported: %v", vs)
	}

	l3 := tiny()
	l3.Cells[3].X++ // moved a fixed cell
	vs = l3.Check(0)
	kinds = map[string]bool{}
	for _, v := range vs {
		kinds[v.Kind] = true
	}
	if !kinds["fixed-moved"] {
		t.Fatalf("fixed-moved violation not reported: %v", vs)
	}
}

func TestCheckMaxLimit(t *testing.T) {
	l := tiny()
	// Pile every movable cell on top of the blockage to create many
	// violations, then ask for at most one.
	for i := 0; i < 3; i++ {
		l.Cells[i].X = 30
		l.Cells[i].Y = 0
	}
	if vs := l.Check(1); len(vs) != 1 {
		t.Fatalf("Check(1) returned %d violations, want 1", len(vs))
	}
	if vs := l.Check(0); len(vs) < 3 {
		t.Fatalf("Check(0) returned %d violations, want all (>=3)", len(vs))
	}
}

func TestDisplacementAndMetrics(t *testing.T) {
	l := tiny()
	l.Cells[0].X += 8 // one row-height to the right
	l.Cells[2].Y += 1 // one row up
	m := Measure(l)
	if m.Movable != 3 {
		t.Fatalf("Movable = %d, want 3", m.Movable)
	}
	if m.Moved != 2 {
		t.Fatalf("Moved = %d, want 2", m.Moved)
	}
	// Cell a: 8 sites = 1.0 row heights; heights classes present: 1,2,3.
	// class 1 avg = 1.0, class 2 avg = 0, class 3 avg = 1.0 → AveDis = 2/3.
	if diff := m.AveDis - 2.0/3.0; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("AveDis = %v, want 2/3", m.AveDis)
	}
	if m.MaxDis != 1.0 {
		t.Fatalf("MaxDis = %v, want 1.0", m.MaxDis)
	}
	if m.TotalDis != 2.0 {
		t.Fatalf("TotalDis = %v, want 2.0", m.TotalDis)
	}
}

func TestDensityAndHistogram(t *testing.T) {
	l := tiny()
	// movable area = 4 + 12 + 9 = 25; free = 40*8 - 40 = 280.
	want := 25.0 / 280.0
	if d := l.Density(); d < want-1e-12 || d > want+1e-12 {
		t.Fatalf("Density = %v, want %v", d, want)
	}
	hist := HeightHistogram(l)
	if hist[1] != 1 || hist[2] != 1 || hist[3] != 1 {
		t.Fatalf("HeightHistogram = %v", hist)
	}
	if f := TallCellFraction(l, 2); f != 1.0/3.0 {
		t.Fatalf("TallCellFraction(2) = %v, want 1/3", f)
	}
	if f := TallCellFraction(l, 3); f != 0 {
		t.Fatalf("TallCellFraction(3) = %v, want 0", f)
	}
}

func TestCloneAndReset(t *testing.T) {
	l := tiny()
	cp := l.Clone()
	cp.Cells[0].X = 99
	if l.Cells[0].X == 99 {
		t.Fatal("Clone must deep-copy cells")
	}
	l.Cells[0].X = 7
	l.ResetToGlobal()
	if l.Cells[0].X != l.Cells[0].GX {
		t.Fatal("ResetToGlobal did not restore position")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := tiny()
	l.Cells[1].X = 12 // displaced cell exercises the 9-field form
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name || got.NumSitesX != l.NumSitesX || got.NumRows != l.NumRows || got.RowHeight != l.RowHeight {
		t.Fatalf("header mismatch: %+v vs %+v", got, l)
	}
	if len(got.Cells) != len(l.Cells) {
		t.Fatalf("cell count %d, want %d", len(got.Cells), len(l.Cells))
	}
	for i := range l.Cells {
		a, b := l.Cells[i], got.Cells[i]
		if a.Name != b.Name || a.X != b.X || a.Y != b.Y || a.GX != b.GX || a.GY != b.GY ||
			a.W != b.W || a.H != b.H || a.Parity != b.Parity || a.Fixed != b.Fixed {
			t.Fatalf("cell %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []struct{ in, want string }{
		{"", "unexpected EOF"},
		{"flexpl 2\ndesign x\ndie 1 1 1\ncells 0\n", `flexpl line 1: bad header "flexpl 2"`},
		{"flexpl 1\ndesign x\ndie 1 1 1\ncells 1\n", "expected 1 cells, got 0"}, // missing cell line
		{"flexpl 1\ndesign x\ndie 1 1 1\ncells 1\na 0 0 1 1 sideways 0\n", `flexpl line 5: bad parity "sideways"`},
		{"flexpl 1\ndesign x\ndie 1 1 1\ncells 1\na 0 0 0 1 any 0\n", "non-positive size 0x1"}, // zero width
		// Dies without rows or sites: the legality check and the spatial
		// index size per-row and per-bin arrays from them.
		{"flexpl 1\ndesign d\ndie 8 -4 8\ncells 1\na 0 0 2 1 any 0\n",
			"flexpl line 3: die 8 x -4 needs at least one site and one row"},
		{"flexpl 1\ndesign d\ndie 8 0 8\ncells 0\n", "flexpl line 3: die 8 x 0 needs"},
		{"flexpl 1\n\ndesign d\ndie -1 4 8\ncells 0\n", "flexpl line 4: die -1 x 4 needs"},
		// Dies out of proportion to their cells: one flexserve upload
		// declaring a billion-square die once had Check ask for 24 GB.
		{"flexpl 1\ndesign d\ndie 1000000000 1000000000 8\ncells 1\na 0 0 2 1 any 0\n",
			"flexpl line 4: die 1000000000 x 1000000000 is out of proportion to its cell count 1"},
		{"flexpl 1\ndesign d\ndie 1025 1024 8\ncells 1024\n", "die 1025 x 1024 is out of proportion"},
		{"flexpl 1\ndesign d\ndie 1 1025 8\ncells 0\n", "die 1 x 1025 is out of proportion"},
		{"flexpl 1\ndesign d\ndie 4097 2048 8\ncells 2048\n", "die 4097 x 2048 is out of proportion"},
		// (2^54+1) × 2^10 sites × rows wraps to 1024 in 64 bits.
		{"flexpl 1\ndesign d\ndie 18014398509481985 1024 8\ncells 0\n", "is out of proportion"},
		// Cells larger than their die: one 10^12 rows tall once ran
		// Measure out of memory, and Check would step through every row.
		{"flexpl 1\ndesign d\ndie 8 8 8\ncells 1\nb 10 0 2 1000000000000 any 1\n",
			"flexpl line 5: cell b of size 2x1000000000000 is larger than its 8 x 8 die"},
		{"flexpl 1\ndesign d\ndie 8 4 8\ncells 2\na 0 0 2 1 any 0\nw 0 0 9 1 any 0\n",
			"flexpl line 6: cell w of size 9x1 is larger than its 8 x 4 die"},
		{"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\nt 0 0 1 5 even 0 0 0\n", "cell t of size 1x5 is larger"},
	}
	for i, tc := range bad {
		_, err := Decode(bytes.NewReader([]byte(tc.in)))
		if err == nil {
			t.Errorf("case %d: Decode accepted garbage", i)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q, want it to contain %q", i, err, tc.want)
		}
	}
}

func TestMovableIDsAndMaxHeight(t *testing.T) {
	l := tiny()
	ids := l.MovableIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("MovableIDs = %v", ids)
	}
	if l.MaxHeight() != 8 {
		// blockage is 8 rows tall
		t.Fatalf("MaxHeight = %d, want 8", l.MaxHeight())
	}
}
