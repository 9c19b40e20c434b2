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
	"fmt"
	"sort"

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
// all if max <= 0).
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
	// Overlap detection with a per-row sweep: O(n·h + k log k) instead of n².
	type span struct {
		lo, hi, id int
	}
	rows := make([][]span, l.NumRows+1)
	for i := range l.Cells {
		c := &l.Cells[i]
		for y := c.Y; y < c.Y+c.H; y++ {
			if y < 0 || y >= len(rows) {
				continue // out-of-die already reported
			}
			rows[y] = append(rows[y], span{lo: c.X, hi: c.X + c.W, id: i})
		}
	}
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	for _, spans := range rows {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			// Check against preceding spans that may still reach this one.
			for j := i - 1; j >= 0; j-- {
				if spans[j].hi <= spans[i].lo {
					// Sorted by lo, but an earlier wide span can still
					// overlap; keep scanning back while any could reach.
					continue
				}
				a, b := spans[j].id, spans[i].id
				if a > b {
					a, b = b, a
				}
				p := pair{a, b}
				if !seen[p] {
					seen[p] = true
					if add(Violation{Kind: "overlap", CellA: a, CellB: b}) {
						return out
					}
				}
			}
		}
	}
	return out
}

// Legal reports whether the layout has no violations.
func (l *Layout) Legal() bool { return len(l.Check(1)) == 0 }

// OverlapArea returns the total pairwise overlap area between cells, a
// progress measure for legalization (0 when fully resolved).
func (l *Layout) OverlapArea() int {
	type span struct {
		lo, hi, id int
	}
	total := 0
	rows := make([][]span, l.NumRows+1)
	for i := range l.Cells {
		c := &l.Cells[i]
		for y := c.Y; y < c.Y+c.H; y++ {
			if y < 0 || y >= len(rows) {
				continue
			}
			rows[y] = append(rows[y], span{lo: c.X, hi: c.X + c.W, id: i})
		}
	}
	for _, spans := range rows {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			for j := i - 1; j >= 0; j-- {
				ov := geom.Min(spans[j].hi, spans[i].hi) - spans[i].lo
				if ov > 0 {
					total += ov
				}
			}
		}
	}
	return total
}
