// Package model defines the placement data model shared by every legalizer
// in this repository: mixed-cell-height standard cells on a row/site grid,
// power/ground (P/G) rail alignment, fixed blockages, and the legality and
// quality rules of the IC/CAD 2017 mixed-cell-height legalization contest
// that the FLEX paper evaluates on.
//
// Coordinates are integers. X positions count placement sites, Y positions
// count standard-cell rows. A cell of height h occupies h consecutive rows.
// Rows alternate power and ground rails, so cells of even height are only
// legal on rows of one parity (the P/G alignment constraint of the paper's
// Fig. 1); odd-height cells may sit on any row.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/flex-eda/flex/internal/geom"
)

// PGParity encodes a cell's power-rail alignment requirement.
type PGParity uint8

const (
	// ParityAny means the cell may be placed on any row (odd-height cells).
	ParityAny PGParity = iota
	// ParityEven means the cell's bottom row index must be even.
	ParityEven
	// ParityOdd means the cell's bottom row index must be odd.
	ParityOdd
)

func (p PGParity) String() string {
	switch p {
	case ParityAny:
		return "any"
	case ParityEven:
		return "even"
	case ParityOdd:
		return "odd"
	}
	return fmt.Sprintf("PGParity(%d)", uint8(p))
}

// AllowsRow reports whether a cell with this parity may have its bottom edge
// on row y.
func (p PGParity) AllowsRow(y int) bool {
	switch p {
	case ParityEven:
		return y%2 == 0
	case ParityOdd:
		return y%2 != 0
	default:
		return true
	}
}

// Cell is one standard cell. GX/GY hold the global-placement position the
// legalizer must stay close to; X/Y hold the current (possibly still
// overlapping) position.
type Cell struct {
	ID     int      // index into Layout.Cells
	Name   string   // benchmark-unique name
	X, Y   int      // current bottom-left position (sites, rows)
	GX, GY int      // global-placement bottom-left position
	W, H   int      // width in sites, height in rows
	Parity PGParity // P/G alignment requirement
	Fixed  bool     // fixed blockage (terminal/macro): never moved
}

// Rect returns the rectangle currently occupied by the cell.
func (c *Cell) Rect() geom.Rect { return geom.NewRect(c.X, c.Y, c.W, c.H) }

// Area returns the cell area in site×row units.
func (c *Cell) Area() int { return c.W * c.H }

// Displacement returns the Manhattan distance, in sites, between the cell's
// current and global-placement positions, with the vertical term scaled by
// rowHeight sites per row (Eq. 1 of the paper, on the site grid).
func (c *Cell) Displacement(rowHeight int) int {
	return geom.Abs(c.X-c.GX) + rowHeight*geom.Abs(c.Y-c.GY)
}

// Layout is a complete design: the die, its rows, and all cells (movable and
// fixed). It is the input and output of every legalizer in the repository.
type Layout struct {
	Name      string
	NumSitesX int // die width in sites
	NumRows   int // die height in rows
	RowHeight int // sites per row height, used to convert Y distance to sites
	Cells     []Cell
}

// Clone returns a deep copy of the layout. Legalizers operate on clones so
// the caller's layout is never mutated.
func (l *Layout) Clone() *Layout {
	out := &Layout{
		Name:      l.Name,
		NumSitesX: l.NumSitesX,
		NumRows:   l.NumRows,
		RowHeight: l.RowHeight,
		Cells:     make([]Cell, len(l.Cells)),
	}
	copy(out.Cells, l.Cells)
	return out
}

// Die returns the die rectangle.
func (l *Layout) Die() geom.Rect { return geom.NewRect(0, 0, l.NumSitesX, l.NumRows) }

// MovableIDs returns the IDs of all movable (non-fixed) cells.
func (l *Layout) MovableIDs() []int {
	ids := make([]int, 0, len(l.Cells))
	for i := range l.Cells {
		if !l.Cells[i].Fixed {
			ids = append(ids, i)
		}
	}
	return ids
}

// MaxHeight returns the tallest cell height in rows (H in Eq. 2), or 1 for an
// empty layout.
func (l *Layout) MaxHeight() int {
	h := 1
	for i := range l.Cells {
		if l.Cells[i].H > h {
			h = l.Cells[i].H
		}
	}
	return h
}

// Density returns total movable cell area divided by free (non-blockage) die
// area, the "Den.(%)" column of the paper's Table 1 expressed as a fraction.
func (l *Layout) Density() float64 {
	var movable, blocked int
	for i := range l.Cells {
		if l.Cells[i].Fixed {
			blocked += l.Cells[i].Area()
		} else {
			movable += l.Cells[i].Area()
		}
	}
	free := l.Die().Area() - blocked
	if free <= 0 {
		return 0
	}
	return float64(movable) / float64(free)
}

// ResetToGlobal restores every movable cell to its global-placement position.
func (l *Layout) ResetToGlobal() {
	for i := range l.Cells {
		if !l.Cells[i].Fixed {
			l.Cells[i].X = l.Cells[i].GX
			l.Cells[i].Y = l.Cells[i].GY
		}
	}
}

// Violation describes one legality failure found by Check.
type Violation struct {
	Kind  string // "overlap", "out-of-die", "pg-parity", "fixed-moved"
	CellA int    // offending cell ID
	CellB int    // second cell for overlaps, else -1
}

func (v Violation) String() string {
	if v.CellB >= 0 {
		return fmt.Sprintf("%s: cells %d and %d", v.Kind, v.CellA, v.CellB)
	}
	return fmt.Sprintf("%s: cell %d", v.Kind, v.CellA)
}

// Check validates the layout against the legalization rules: every cell
// inside the die, bottom row respecting P/G parity, fixed cells unmoved, and
// no two cells overlapping. It returns all violations found (up to max, or
// all if max <= 0): the per-cell ones in cell order, then the overlaps row
// by row.
//
// On a legal layout Check costs O(n·h + w + r) time for n cells at most h
// rows tall on a die w sites wide and r rows high, and one buffer of
// n + w + r ints: overlapFree proves in one pass that no two cells
// overlap. A layout it cannot prove clean also pays the row sweep:
// O(s log s) for its s row spans, plus a back-scan from each span over the
// earlier ones that still reach it.
func (l *Layout) Check(max int) []Violation {
	var out []Violation
	add := func(v Violation) bool {
		out = append(out, v)
		return max > 0 && len(out) >= max
	}
	die := l.Die()
	for i := range l.Cells {
		c := &l.Cells[i]
		if !die.Contains(c.Rect()) {
			if add(Violation{Kind: "out-of-die", CellA: i, CellB: -1}) {
				return out
			}
		}
		if !c.Parity.AllowsRow(c.Y) {
			if add(Violation{Kind: "pg-parity", CellA: i, CellB: -1}) {
				return out
			}
		}
		if c.Fixed && (c.X != c.GX || c.Y != c.GY) {
			if add(Violation{Kind: "fixed-moved", CellA: i, CellB: -1}) {
				return out
			}
		}
	}
	if l.overlapFree() {
		return out
	}
	// Two non-empty spans that overlap on one row overlap on every row
	// their cells share, whichever of them sorts first, so such a pair is
	// reported on its first shared row: the row one of the cells starts
	// on, or row 0. Whether a pair with an empty span meets depends on the
	// row's order of tied left edges, so those pairs alone are
	// deduplicated exactly.
	type pair struct{ a, b int }
	var seen map[pair]bool
	l.sweepRows(func(y int, s, t span) bool {
		a, b := s.id, t.id
		if a > b {
			a, b = b, a
		}
		if s.lo < s.hi && t.lo < t.hi {
			if y > 0 && y != l.Cells[a].Y && y != l.Cells[b].Y {
				return true
			}
		} else {
			p := pair{a, b}
			if seen[p] {
				return true
			}
			if seen == nil {
				seen = make(map[pair]bool)
			}
			seen[p] = true
		}
		return !add(Violation{Kind: "overlap", CellA: a, CellB: b})
	})
	return out
}

// Legal reports whether the layout has no violations.
func (l *Layout) Legal() bool { return len(l.Check(1)) == 0 }

// OverlapArea returns the total pairwise overlap area between cells, a
// progress measure for legalization (0 when fully resolved).
func (l *Layout) OverlapArea() int {
	total := 0
	l.sweepRows(func(_ int, s, t span) bool {
		if ov := min(s.hi, t.hi) - t.lo; ov > 0 {
			total += ov
		}
		return true
	})
	return total
}

// overlapFree reports whether one pass proves that the row sweep would
// find no overlap. A counting sort over X visits the cells in (X, index)
// order, and each must start at or after its rows' reach, the right end of
// the cells already visited on them. Then every row's spans have distinct
// left edges, so any sort puts them in one order, and none reaches the
// next.
//
// The proof needs every cell inside the die and at least one site wide and
// one row tall: the sweep also meets cells on row NumRows, and reports a
// zero-width span inside a wider one. It keeps its buffer in proportion to
// the cells, so it takes a die at most 64 sites per cell plus 4096 wide.
// Otherwise it reports false, and Check sweeps.
func (l *Layout) overlapFree() bool {
	cells := l.Cells
	n, w, h := len(cells), l.NumSitesX, l.NumRows
	if n == 0 {
		return true
	}
	if w < 1 || h < 1 || w > 64*n+4096 {
		return false
	}
	buf := make([]int, w+1+n+h)
	next, order, reach := buf[:w+1], buf[w+1:w+1+n], buf[w+1+n:]
	for i := range cells {
		c := &cells[i]
		if c.W < 1 || c.H < 1 || c.W > w || c.H > h || c.X < 0 || c.Y < 0 || c.X > w-c.W || c.Y > h-c.H {
			return false
		}
		next[c.X+1]++
	}
	for x := 1; x <= w; x++ {
		next[x] += next[x-1]
	}
	for i := range cells {
		x := cells[i].X
		order[next[x]] = i
		next[x]++
	}
	for _, i := range order {
		c := &cells[i]
		for y := c.Y; y < c.Y+c.H; y++ {
			if c.X < reach[y] {
				return false
			}
			reach[y] = c.X + c.W
		}
	}
	return true
}

// span is a cell's extent [lo, hi) on one row. Once its row is sorted,
// reach is the largest hi among the spans up to and including it.
type span struct{ lo, hi, reach, id int }

// sweepRows calls fn(y, s, t) for each pair of spans on row y where s
// sorts before t and s.hi > t.lo, until fn returns false. It visits rows 0
// through NumRows (a cell past the die's top edge still meets the cells
// beside it there), then each t in sorted order, then each s from nearest
// to farthest, and stops the back-scan at the first s whose reach is at or
// before t.lo: no span sorted before it reaches t.
//
// The rows lie back to back in one buffer, each filled in cell order and
// sorted by lo with slices.SortFunc. It runs the same pdqsort as sort.Slice,
// comparison for comparison, so tied spans come out in sort.Slice's order:
// the order of Check's overlap violations, which results carry, depends on
// it.
func (l *Layout) sweepRows(fn func(y int, s, t span) bool) {
	nrows := max(l.NumRows+1, 0)
	rows := func(c *Cell) (int, int) { return max(c.Y, 0), min(c.Y+c.H, nrows) }
	end := make([]int, nrows)
	for i := range l.Cells {
		y0, y1 := rows(&l.Cells[i])
		for y := y0; y < y1; y++ {
			end[y]++
		}
	}
	total := 0
	for y, k := range end {
		end[y] = total
		total += k
	}
	spans := make([]span, total)
	for i := range l.Cells {
		c := &l.Cells[i]
		y0, y1 := rows(c)
		for y := y0; y < y1; y++ {
			spans[end[y]] = span{lo: c.X, hi: c.X + c.W, id: i}
			end[y]++
		}
	}
	start := 0
	for y, e := range end {
		row := spans[start:e]
		start = e
		slices.SortFunc(row, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		reach := math.MinInt
		for i := range row {
			reach = max(reach, row[i].hi)
			row[i].reach = reach
		}
		for i := 1; i < len(row); i++ {
			t := row[i]
			for j := i - 1; j >= 0 && row[j].reach > t.lo; j-- {
				if row[j].hi > t.lo && !fn(y, row[j], t) {
					return
				}
			}
		}
	}
}
