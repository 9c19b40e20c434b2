// Package shift implements the two cell-shifting algorithms the FLEX paper
// contrasts in Fig. 6:
//
//   - Original — the MGL overlap-resolution loop (Fig. 6 Algorithm 3): a
//     finish flag guards repeated passes over all subcells (bottom-to-top
//     across rows, outward within a row) until no cell moves. Because moving
//     a multi-row cell can create an overlap in a row that was already
//     traversed, several passes may be needed.
//   - SACS — Sort-Ahead Cell Shifting (Fig. 6 Algorithm 4): localCells are
//     pre-sorted by x and processed outward from the target, so every cell's
//     final position is known the moment it is visited, in exactly one pass,
//     and can be streamed to the breakpoint sorter.
//
// Both algorithms push cells away from a target rectangle inserted into the
// region: the left-move phase packs cells on the left of the insertion
// boundary leftward, the right-move phase packs the right side rightward.
// They compute the same fixpoint; the difference is pass structure, which is
// what the FPGA cycle models charge for.
package shift

import (
	"slices"

	"github.com/flex-eda/flex/internal/region"
)

// Placement describes the target rectangle being inserted.
type Placement struct {
	TX, TY int // target bottom-left (sites, rows)
	TW, TH int // target size
	// Boundary2 is the doubled x coordinate separating the left and right
	// chains (cells whose doubled center ≤ Boundary2 belong to the left
	// side). Zero means "use the target center".
	Boundary2 int
}

func (p Placement) boundary2() int {
	if p.Boundary2 != 0 {
		return p.Boundary2
	}
	return 2*p.TX + p.TW
}

// Stats counts the work of one shifting run, at the granularity the FPGA
// models charge for.
type Stats struct {
	Passes        int // full traversal passes (Original: ≥1 per phase; SACS: 1 per phase)
	SubcellVisits int // subcell overlap checks
	Moves         int // cell position updates
	SortedCells   int // cells through the ahead-sorter (SACS only)
	SortOps       int // comparison units spent pre-sorting (SACS only)
}

// Add accumulates other into st.
func (st *Stats) Add(other *Stats) {
	st.Passes += other.Passes
	st.SubcellVisits += other.SubcellVisits
	st.Moves += other.Moves
	st.SortedCells += other.SortedCells
	st.SortOps += other.SortOps
}

// side classification relative to the insertion boundary.
const (
	sideLeft  = -1
	sideNone  = 0 // cell in no target row: moves only if pushed
	sideRight = 1
)

// classifySides returns the side of every localCell for the placement, in
// dst's memory when it is large enough.
func classifySides(dst []int8, reg *region.Region, p Placement) []int8 {
	b2 := p.boundary2()
	sides := slices.Grow(dst[:0], len(reg.Cells))[:len(reg.Cells)]
	for i := range reg.Cells {
		c := &reg.Cells[i]
		inTargetRows := c.Y < p.TY+p.TH && c.Y+c.H > p.TY
		if !inTargetRows {
			sides[i] = sideNone
			continue
		}
		if 2*c.X+c.W <= b2 {
			sides[i] = sideLeft
		} else {
			sides[i] = sideRight
		}
	}
	return sides
}

// Original runs the multi-pass MGL shifting algorithm, mutating the region's
// cell positions. It returns false when a cell would be pushed outside its
// segment (infeasible placement); positions are then undefined and the
// caller should discard the region copy.
func Original(reg *region.Region, p Placement, st *Stats) bool {
	if st == nil {
		st = &Stats{}
	}
	sides := classifySides(nil, reg, p)
	if !originalPhase(reg, p, sides, true, st) {
		return false
	}
	return originalPhase(reg, p, sides, false, st)
}

// insideSegments reports whether the cell still fits within every segment
// it occupies.
func insideSegments(reg *region.Region, c *region.LocalCell) bool {
	for row := c.Y; row < c.Y+c.H; row++ {
		seg := reg.SegmentAt(row)
		if seg == nil || c.X < seg.Lo || c.X+c.W > seg.Hi {
			return false
		}
	}
	return true
}

// originalPhase runs repeated subcell passes for one direction until the
// finish flag stays true. Per-segment entry lists keep their initial x
// order throughout — shifting may not reorder cells — so the chain
// structure is fixed and the fixpoint matches SACS exactly.
func originalPhase(reg *region.Region, p Placement, sides []int8, left bool, st *Stats) bool {
	for {
		st.Passes++
		moved := false
		for si := range reg.Segments {
			seg := &reg.Segments[si]
			if seg.Len() == 0 {
				continue
			}
			inTarget := seg.Row >= p.TY && seg.Row < p.TY+p.TH
			cells := seg.Cells
			if left {
				// Right-to-left within the row.
				for k := len(cells) - 1; k >= 0; k-- {
					ci := cells[k]
					if sides[ci] == sideRight {
						continue
					}
					st.SubcellVisits++
					// The moving cell's right edge may not pass its nearest
					// right-hand entity: the next movable entry, the target
					// (in target rows, when the next entry is beyond it),
					// or a static right-side cell.
					bound := seg.Hi
					switch {
					case k+1 < len(cells) && sides[cells[k+1]] != sideRight:
						bound = reg.Cells[cells[k+1]].X
					case inTarget:
						bound = p.TX
					case k+1 < len(cells):
						bound = reg.Cells[cells[k+1]].X
					}
					c := &reg.Cells[ci]
					if c.X+c.W > bound {
						c.X = bound - c.W
						moved = true
						st.Moves++
						if !insideSegments(reg, c) {
							return false
						}
					}
				}
			} else {
				// Left-to-right within the row.
				for k := 0; k < len(cells); k++ {
					ci := cells[k]
					if sides[ci] == sideLeft {
						continue
					}
					st.SubcellVisits++
					bound := seg.Lo
					switch {
					case k > 0 && sides[cells[k-1]] != sideLeft:
						bound = reg.Cells[cells[k-1]].X + reg.Cells[cells[k-1]].W
					case inTarget:
						bound = p.TX + p.TW
					case k > 0:
						bound = reg.Cells[cells[k-1]].X + reg.Cells[cells[k-1]].W
					}
					c := &reg.Cells[ci]
					if c.X < bound {
						c.X = bound
						moved = true
						st.Moves++
						if !insideSegments(reg, c) {
							return false
						}
					}
				}
			}
		}
		if !moved {
			return true
		}
	}
}

// Shifter runs SACS while reusing its working memory across calls: the
// side flags, the ahead sorter's x-order and the per-row frontiers. The
// zero value is ready to use. Not safe for concurrent use.
type Shifter struct {
	sides    []int8
	order    []int
	frontier []int
}

// SACS runs the sort-ahead single-pass shifting algorithm, mutating the
// region's cell positions. The result is identical to Original; the
// structure is one sorted outward sweep per phase, with per-segment
// frontier cursors standing in for the paper's CurSegPtr/CurSegEnd tables.
func (s *Shifter) SACS(reg *region.Region, p Placement, st *Stats) bool {
	if st == nil {
		st = &Stats{}
	}
	s.sides = classifySides(s.sides, reg, p)

	// Ahead sorter: all localCells by x, ties in index order. The hardware
	// sorts once and reads the order backwards for the left phase and
	// forwards for the right.
	s.order = reg.XOrder(s.order)
	order := s.order
	st.SortedCells += len(order)
	if n := len(order); n > 1 {
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		st.SortOps += n * logn
	}

	if !s.phase(reg, p, true, st) {
		return false
	}
	return s.phase(reg, p, false, st)
}

func (s *Shifter) phase(reg *region.Region, p Placement, left bool, st *Stats) bool {
	st.Passes++
	sides, order := s.sides, s.order
	// frontier[row-index]: for the left phase, the x bound the next cell's
	// right edge must not exceed; for the right phase, the x bound the next
	// cell's left edge must meet.
	s.frontier = slices.Grow(s.frontier[:0], len(reg.Segments))[:len(reg.Segments)]
	frontier := s.frontier
	for si := range reg.Segments {
		seg := &reg.Segments[si]
		inTarget := seg.Row >= p.TY && seg.Row < p.TY+p.TH
		if left {
			frontier[si] = seg.Hi
			if inTarget {
				frontier[si] = p.TX
			}
		} else {
			frontier[si] = seg.Lo
			if inTarget {
				frontier[si] = p.TX + p.TW
			}
		}
	}
	apply := func(ci int) bool {
		c := &reg.Cells[ci]
		st.SubcellVisits += c.H
		if left {
			bound := 1 << 60
			for row := c.Y; row < c.Y+c.H; row++ {
				si := row - reg.Window.Y
				if si < 0 || si >= len(frontier) {
					continue
				}
				if frontier[si] < bound {
					bound = frontier[si]
				}
			}
			if c.X+c.W > bound {
				c.X = bound - c.W
				st.Moves++
			}
			for row := c.Y; row < c.Y+c.H; row++ {
				si := row - reg.Window.Y
				if si >= 0 && si < len(frontier) && c.X < frontier[si] {
					frontier[si] = c.X
				}
				if si >= 0 && si < len(reg.Segments) && c.X < reg.Segments[si].Lo {
					return false
				}
			}
		} else {
			bound := -(1 << 60)
			for row := c.Y; row < c.Y+c.H; row++ {
				si := row - reg.Window.Y
				if si < 0 || si >= len(frontier) {
					continue
				}
				if frontier[si] > bound {
					bound = frontier[si]
				}
			}
			if c.X < bound {
				c.X = bound
				st.Moves++
			}
			for row := c.Y; row < c.Y+c.H; row++ {
				si := row - reg.Window.Y
				if si >= 0 && si < len(frontier) && c.X+c.W > frontier[si] {
					frontier[si] = c.X + c.W
				}
				if si >= 0 && si < len(reg.Segments) && c.X+c.W > reg.Segments[si].Hi {
					return false
				}
			}
		}
		return true
	}
	if left {
		for k := len(order) - 1; k >= 0; k-- {
			ci := order[k]
			if sides[ci] == sideRight {
				continue
			}
			if !apply(ci) {
				return false
			}
		}
	} else {
		for k := 0; k < len(order); k++ {
			ci := order[k]
			if sides[ci] == sideLeft {
				continue
			}
			if !apply(ci) {
				return false
			}
		}
	}
	reg.SortSegmentCells()
	return true
}
