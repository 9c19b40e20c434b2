package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// packer lays cells out legally: each on a row its parity allows, left
// aligned after the cells already on its rows, plus a gap.
type packer struct {
	l     *Layout
	right []int // each row's packed right end
}

func newPacker(name string, sites, rows int) *packer {
	return &packer{
		l:     &Layout{Name: name, NumSitesX: sites, NumRows: rows, RowHeight: 8},
		right: make([]int, rows),
	}
}

// place packs a w×h cell with its bottom on row y and reports whether it
// fit in the die. An even-height cell gets the parity of row y.
func (p *packer) place(w, h, y, gap int, fixed bool) bool {
	if y < 0 || y+h > p.l.NumRows {
		return false
	}
	x := 0
	for r := y; r < y+h; r++ {
		x = max(x, p.right[r])
	}
	x += gap
	if x+w > p.l.NumSitesX {
		return false
	}
	parity := ParityAny
	if h%2 == 0 {
		parity = ParityEven
		if y%2 != 0 {
			parity = ParityOdd
		}
	}
	id := len(p.l.Cells)
	p.l.Cells = append(p.l.Cells, Cell{
		ID: id, Name: fmt.Sprintf("c%d", id), X: x, Y: y, GX: x, GY: y, W: w, H: h,
		Parity: parity, Fixed: fixed,
	})
	for r := y; r < y+h; r++ {
		p.right[r] = x + w
	}
	return true
}

// packedLayout packs n cells, 1–6 sites wide and 1–3 rows tall, about a
// tenth of them fixed, into a 40-row die at under half utilization, then
// shuffles the cell order so that it follows no row's X order.
func packedLayout(n int, seed int64) *Layout {
	rng := rand.New(rand.NewSource(seed))
	p := newPacker("packed", n/2+16, 40)
	for len(p.l.Cells) < n {
		p.place(1+rng.Intn(6), 1+rng.Intn(3), rng.Intn(40), rng.Intn(3), rng.Intn(10) == 0)
	}
	cells := p.l.Cells
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i := range cells {
		cells[i].ID = i
		cells[i].Name = fmt.Sprintf("c%d", i)
	}
	return p.l
}

// perturb breaks a cell the way the check must catch, by kind mod 8: a tie
// with another cell's X and row, a zero W or H, a negative X or Y, a reach
// to row NumRows, a one-site shift (a moved fixed cell, or an overlap with
// a neighbour) or a one-row shift (a parity fault on an even-height cell).
func perturb(l *Layout, kind, cell, other int) {
	c, o := &l.Cells[cell], &l.Cells[other]
	switch kind % 8 {
	case 0:
		c.X, c.Y = o.X, o.Y
	case 1:
		c.W = 0
	case 2:
		c.H = 0
	case 3:
		c.X = -1 - other%3
	case 4:
		c.Y = -1
	case 5:
		c.Y = l.NumRows - c.H + 1
	case 6:
		c.X++
	case 7:
		c.Y++
	}
}

// checkMatchesReference fails t unless Check returns refCheck's violations
// at every limit, OverlapArea refOverlapArea's sum, and neither changes l.
func checkMatchesReference(t *testing.T, l *Layout) {
	t.Helper()
	before := l.Clone()
	for _, m := range []int{0, 1, 16} {
		if got, want := l.Check(m), refCheck(l, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("Check(%d) = %v, reference %v\nlayout %+v", m, got, want, l)
		}
	}
	if got, want := l.OverlapArea(), refOverlapArea(l); got != want {
		t.Fatalf("OverlapArea = %d, reference %d\nlayout %+v", got, want, l)
	}
	if !slices.Equal(l.Cells, before.Cells) {
		t.Fatalf("checking changed the cells")
	}
}

// TestCheckMatchesReferenceOnPerturbedLayouts holds Check to the reference
// on 4,000 shuffled packed layouts, each left legal or given up to three
// perturbations, and checks that overlapFree proves a share of them clean
// and proves nothing the reference finds an overlap in.
func TestCheckMatchesReferenceOnPerturbedLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	proved := 0
	for trial := 0; trial < 4000; trial++ {
		l := packedLayout(8+rng.Intn(80), int64(trial))
		for k := rng.Intn(4); k > 0; k-- {
			perturb(l, rng.Intn(8), rng.Intn(len(l.Cells)), rng.Intn(len(l.Cells)))
		}
		if l.overlapFree() {
			proved++
			for _, v := range refCheck(l, 0) {
				if v.Kind == "overlap" {
					t.Fatalf("overlapFree proved a layout with %v clean", v)
				}
			}
		}
		checkMatchesReference(t, l)
	}
	if proved < 1000 {
		t.Fatalf("overlapFree proved %d of 4000 layouts clean, want at least 1000", proved)
	}
}

// TestCheckMatchesReferenceOnLongRows covers rows of more than 12 spans,
// where pdqsort leaves insertion sort and no longer keeps tied spans in
// cell order: Check must still report pairs in the reference's order. Half
// the trials pile cells of width 0 to 3 on eight X values. The other half
// tile one row with 2-site cells and tie zero-width cells to some of their
// left edges, a row the proof must refuse. The sweep reports such a tie
// only when the sort puts the wider span first.
func TestCheckMatchesReferenceOnLongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		l := &Layout{Name: "row", NumSitesX: 128, NumRows: 1, RowHeight: 8}
		add := func(x, w int) {
			l.Cells = append(l.Cells, Cell{X: x, GX: x, W: w, H: 1})
		}
		if trial%2 == 0 {
			for n := 13 + rng.Intn(50); n > 0; n-- {
				add(rng.Intn(8), rng.Intn(4))
			}
		} else {
			tiles := 13 + rng.Intn(50)
			for k := 0; k < tiles; k++ {
				add(2*k, 2)
			}
			for z := 1 + rng.Intn(4); z > 0; z-- {
				add(2*rng.Intn(tiles), 0)
			}
		}
		rng.Shuffle(len(l.Cells), func(i, j int) { l.Cells[i], l.Cells[j] = l.Cells[j], l.Cells[i] })
		for i := range l.Cells {
			l.Cells[i].ID = i
		}
		checkMatchesReference(t, l)
	}
}

// TestCheckMatchesReferenceOnGoldenLayouts covers coordinates the packed
// layouts lack: the golden cases' int extremes, where a span's right end
// wraps, and the 1k-cell golden file.
func TestCheckMatchesReferenceOnGoldenLayouts(t *testing.T) {
	_, l := goldenLayout(t)
	checkMatchesReference(t, l)
	for _, g := range goldenCases() {
		for _, m := range []int{0, 1, 16} {
			if got, want := g.l.Check(m), refCheck(g.l, m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Check(%d) = %v, reference %v", g.name, m, got, want)
			}
		}
	}
}
