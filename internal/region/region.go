// Package region implements the localization vocabulary of the MGL
// algorithm (Sec. 2.2 of the FLEX paper): the rectangular window W around a
// target cell, the per-row localSegments of unblocked sites, the localCells
// fully contained in those segments, and the localRegion that FOP operates
// on. It also provides the grid spatial index the legalizer uses to find
// nearby cells quickly.
package region

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
)

// iv is a blocked x-interval within one window row.
type iv struct{ lo, hi int }

// LocalCell is a cell participating in a localRegion, with a private copy of
// its position so FOP can shift it hypothetically without touching the
// layout.
type LocalCell struct {
	ID   int // layout cell ID
	X, Y int // current position (region-local working copy)
	GX   int // global-placement x, displacement reference
	W, H int
}

// Rect returns the rectangle currently occupied by the local cell.
func (c *LocalCell) Rect() geom.Rect { return geom.NewRect(c.X, c.Y, c.W, c.H) }

// Segment is one localSegment: the chosen run of unblocked sites in one row
// of the window, with the indices (into Region.Cells) of the localCells
// occupying it, sorted by x.
type Segment struct {
	Row    int
	Lo, Hi int   // free span [Lo, Hi)
	Cells  []int // localCell indices sorted by current X
}

// Len returns the segment's capacity in sites.
func (s *Segment) Len() int { return s.Hi - s.Lo }

// Region is a localRegion: the working set of one FOP invocation.
type Region struct {
	Target   int // layout cell ID of the target being placed
	TargetW  int
	TargetH  int
	Window   geom.Rect
	Segments []Segment // indexed by row − Window.Y; zero-length = blocked row
	Cells    []LocalCell
	Density  float64 // (localCell area + target area) / segment capacity
}

// SegmentAt returns the segment for absolute row y, or nil when the row is
// outside the window.
func (r *Region) SegmentAt(y int) *Segment {
	i := y - r.Window.Y
	if i < 0 || i >= len(r.Segments) {
		return nil
	}
	return &r.Segments[i]
}

// CellsInRows returns the distinct localCell indices occupying rows
// [y, y+h), in ascending index order.
func (r *Region) CellsInRows(y, h int) []int {
	seen := make(map[int]bool)
	var out []int
	for row := y; row < y+h; row++ {
		seg := r.SegmentAt(row)
		if seg == nil {
			continue
		}
		for _, ci := range seg.Cells {
			if !seen[ci] {
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Validate checks the region's internal invariants: cells inside their
// segments, per-segment lists sorted and non-overlapping. It returns the
// first inconsistency found.
func (r *Region) Validate() error {
	for si := range r.Segments {
		seg := &r.Segments[si]
		prevEnd := seg.Lo
		prevX := -1 << 60
		for _, ci := range seg.Cells {
			c := &r.Cells[ci]
			if c.Y > seg.Row || c.Y+c.H <= seg.Row {
				return fmt.Errorf("region: cell %d listed in row %d it does not occupy", c.ID, seg.Row)
			}
			if c.X < prevX {
				return fmt.Errorf("region: row %d cell list not sorted", seg.Row)
			}
			prevX = c.X
			if c.X < seg.Lo || c.X+c.W > seg.Hi {
				return fmt.Errorf("region: cell %d outside segment [%d,%d)", c.ID, seg.Lo, seg.Hi)
			}
			if c.X < prevEnd {
				return fmt.Errorf("region: cell %d overlaps predecessor in row %d", c.ID, seg.Row)
			}
			prevEnd = c.X + c.W
		}
	}
	return nil
}

// SortSegmentCells re-sorts every segment's cell list by current X. Shifting
// algorithms call it after moving cells; a stable insertion sort fits the
// workload (short, nearly sorted lists) without closure allocations.
func (r *Region) SortSegmentCells() {
	for si := range r.Segments {
		cells := r.Segments[si].Cells
		for i := 1; i < len(cells); i++ {
			for j := i; j > 0 && r.Cells[cells[j]].X < r.Cells[cells[j-1]].X; j-- {
				cells[j], cells[j-1] = cells[j-1], cells[j]
			}
		}
	}
}

// XOrder returns the indices of r.Cells sorted ascending by current X, ties
// in index order, in dst's memory when it is large enough. It is the single
// x-sort that FOP and SACS each run per region; a stable insertion sort
// fits the short, mostly pre-sorted cell lists without closure allocations.
func (r *Region) XOrder(dst []int) []int {
	order := dst[:0]
	for i := range r.Cells {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && r.Cells[order[j]].X < r.Cells[order[j-1]].X; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Clone deep-copies the region so one extraction can be evaluated by
// multiple engines.
func (r *Region) Clone() *Region {
	out := &Region{
		Target: r.Target, TargetW: r.TargetW, TargetH: r.TargetH,
		Window: r.Window, Density: r.Density,
		Segments: make([]Segment, len(r.Segments)),
		Cells:    make([]LocalCell, len(r.Cells)),
	}
	copy(out.Cells, r.Cells)
	for i := range r.Segments {
		s := r.Segments[i]
		cells := make([]int, len(s.Cells))
		copy(cells, s.Cells)
		s.Cells = cells
		out.Segments[i] = s
	}
	return out
}

// candCell is one gathered extraction candidate: exactly the geometry the
// fixpoint touches, packed densely so its iterations stay cache-resident
// instead of striding through the layout's fat Cell structs.
type candCell struct {
	id             int32
	x, y, w, h, gx int32
	movable        bool
}

func (c *candCell) rect() geom.Rect {
	return geom.NewRect(int(c.x), int(c.y), int(c.w), int(c.h))
}

// Extractor builds local regions while reusing its working memory across
// calls: the scanned and gathered candidates, the fixpoint's flags and
// blocked intervals, and the returned region's segments, localCells and
// per-segment lists. The zero value is ready to use. Not safe for
// concurrent use.
//
// A returned region is valid only until the next call on the same
// Extractor. A serial place-and-commit loop, done with one target's region
// before it extracts the next (mgl's serial paths, which serve FLEX, MGL,
// MGL-MT's redo and the GPU engine's host side, and the analytical
// engine's repair pass), keeps one. An engine that holds several regions
// before committing them keeps one Extractor per pending region: MGL-MT
// one per concurrent batch slot, the GPU engine one per target of a
// kernel round.
type Extractor struct {
	reg     Region
	ids     []int // Extract's layout scan
	cands   []candCell
	local   []bool
	blocked [][]iv
	sel     []int
	segs    []Segment // every segment keeps its Cells capacity
	cells   []LocalCell
}

// Extract builds the localRegion for target inside the window win.
// Only cells with placed[id] == true participate; placed cells fully
// contained in the window's free runs become localCells, all other placed
// cells intersecting the window act as obstacles that shrink the segments
// (like fixed blockages). The fixpoint iteration resolves the mutual
// dependence between segment extents and localCell containment.
//
// Extract scans the whole layout for window members; the legalizer hot
// path calls From with an Index query's candidates instead.
func (x *Extractor) Extract(l *model.Layout, placed []bool, targetID int, win geom.Rect) *Region {
	clip := win.Intersect(l.Die())
	ids := x.ids[:0]
	for i := range l.Cells {
		c := &l.Cells[i]
		if !c.Fixed && !placed[i] {
			continue
		}
		if c.Rect().Overlaps(clip) {
			ids = append(ids, i)
		}
	}
	x.ids = ids
	return x.From(l, placed, targetID, win, ids)
}

// From builds the localRegion for target inside the window win from a
// precomputed candidate set (typically an Index query over the window), as
// Extract does. Candidates outside the window, unplaced movable
// candidates, and the target itself are ignored.
func (x *Extractor) From(l *model.Layout, placed []bool, targetID int, win geom.Rect, rawCandidates []int) *Region {
	win = win.Intersect(l.Die())
	target := &l.Cells[targetID]
	x.reg = Region{Target: targetID, TargetW: target.W, TargetH: target.H, Window: win}
	if win.Empty() {
		return &x.reg
	}
	cands := resize(x.cands, len(rawCandidates))[:0]
	for _, i := range rawCandidates {
		if i == targetID {
			continue
		}
		c := &l.Cells[i]
		if !c.Fixed && !placed[i] {
			continue
		}
		if c.Rect().Overlaps(win) {
			cands = append(cands, candCell{
				id: int32(i), x: int32(c.X), y: int32(c.Y),
				w: int32(c.W), h: int32(c.H), gx: int32(c.GX),
				movable: !c.Fixed,
			})
		}
	}
	x.cands = cands
	x.extract(target.GX)
	return &x.reg
}

// resize returns s with length n, reusing its backing array when it is
// large enough and growing it in one step otherwise. Elements past the old
// length keep whatever they held, so a slice of slices keeps each inner
// slice's capacity for reuse.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// extract runs the fixpoint and materialization over the gathered
// candidates into x.reg. targetGX is the target's global x
// (window-centring hint).
func (x *Extractor) extract(targetGX int) {
	r := &x.reg
	win := r.Window
	cands := x.cands
	// Greatest-fixpoint iteration: start from the maximal tentative set
	// (every movable candidate fully inside the window) and demote cells
	// that fall outside the segments their own demoted peers induce. The
	// set shrinks monotonically, so the loop terminates. local is indexed
	// by candidate position.
	x.local = resize(x.local, len(cands))
	local := x.local
	for k := range cands {
		c := &cands[k]
		local[k] = c.movable && win.Contains(c.rect())
	}
	x.segs = resize(x.segs, win.H)
	r.Segments = x.segs
	x.blocked = resize(x.blocked, win.H)
	for {
		buildSegments(r, targetGX, cands, local, x.blocked)
		if !demote(r, cands, local) {
			break
		}
	}

	// Materialize localCells (ascending cell ID) and per-segment lists.
	sel := resize(x.sel, len(cands))[:0]
	for k := range cands {
		if local[k] {
			sel = append(sel, k)
		}
	}
	slices.SortFunc(sel, func(a, b int) int { return cmp.Compare(cands[a].id, cands[b].id) })
	x.sel = sel
	cells := resize(x.cells, len(sel))[:0]
	for _, k := range sel {
		c := &cands[k]
		cells = append(cells, LocalCell{
			ID: int(c.id), X: int(c.x), Y: int(c.y), GX: int(c.gx), W: int(c.w), H: int(c.h),
		})
	}
	x.cells = cells
	r.Cells = cells
	for i := range r.Segments {
		r.Segments[i].Cells = r.Segments[i].Cells[:0]
	}
	for li := range r.Cells {
		c := &r.Cells[li]
		for row := c.Y; row < c.Y+c.H; row++ {
			if seg := r.SegmentAt(row); seg != nil {
				seg.Cells = append(seg.Cells, li)
			}
		}
	}
	r.SortSegmentCells()

	// Density: occupied area over capacity, counting the incoming target.
	capacity := 0
	for i := range r.Segments {
		capacity += r.Segments[i].Len()
	}
	used := r.TargetW * r.TargetH
	for li := range r.Cells {
		used += r.Cells[li].W * r.Cells[li].H
	}
	if capacity > 0 {
		r.Density = float64(used) / float64(capacity)
	} else {
		r.Density = 1
	}
}

// buildSegments recomputes the per-row localSegment given the obstacle set
// (every candidate that is not a localCell). Among a row's free runs it
// prefers the one containing the target's desired position — the run the
// MGL window is meant to be centred on — and falls back to the longest run
// when the desired position is blocked. With windows small relative to
// blockage spacing (the normal case) the two rules coincide; the preference
// matters for expanded/fallback windows that straddle blockages.
func buildSegments(r *Region, targetGX int, cands []candCell, local []bool, blocked [][]iv) {
	win := r.Window
	cx := targetGX + r.TargetW/2
	if cx < win.X {
		cx = win.X
	}
	if cx >= win.X+win.W {
		cx = win.X + win.W - 1
	}
	for i := range blocked {
		blocked[i] = blocked[i][:0]
	}
	for k := range cands {
		if local[k] {
			continue
		}
		c := &cands[k]
		cy, ch, cxlo, cw := int(c.y), int(c.h), int(c.x), int(c.w)
		for row := geom.Max(cy, win.Y); row < geom.Min(cy+ch, win.Y+win.H); row++ {
			blocked[row-win.Y] = append(blocked[row-win.Y], iv{cxlo, cxlo + cw})
		}
	}
	for i := 0; i < win.H; i++ {
		row := win.Y + i
		ivs := blocked[i]
		// Insertion sort: per-row obstacle lists are short.
		for a := 1; a < len(ivs); a++ {
			for b := a; b > 0 && ivs[b].lo < ivs[b-1].lo; b-- {
				ivs[b], ivs[b-1] = ivs[b-1], ivs[b]
			}
		}
		longLo, longHi := 0, 0  // longest free run
		homeLo, homeHi := 0, -1 // run containing cx (if any)
		cur := win.X
		consider := func(hi int) {
			if hi-cur > longHi-longLo {
				longLo, longHi = cur, hi
			}
			if cur <= cx && cx < hi {
				homeLo, homeHi = cur, hi
			}
		}
		for _, b := range ivs {
			lo := geom.Max(b.lo, win.X)
			hi := geom.Min(b.hi, win.X+win.W)
			if lo > cur {
				consider(lo)
			}
			if hi > cur {
				cur = hi
			}
		}
		consider(win.X + win.W)
		// Row and extent only: the segment's Cells list is rebuilt after
		// the fixpoint, into the capacity it kept from earlier calls.
		seg := &r.Segments[i]
		seg.Row = row
		if homeHi > homeLo {
			seg.Lo, seg.Hi = homeLo, homeHi
		} else {
			seg.Lo, seg.Hi = longLo, longHi
		}
	}
}

// demote clears the local flag of every tentative localCell no longer
// fully contained in the current segments (demotion-only refinement) and
// reports whether anything changed. In-place demotion is equivalent to
// rebuilding the set: segments are fixed during one pass, and each cell's
// verdict depends only on its own geometry against them.
func demote(r *Region, cands []candCell, local []bool) bool {
	changed := false
	for k := range cands {
		if !local[k] {
			continue
		}
		c := &cands[k]
		cx, cy, cw, ch := int(c.x), int(c.y), int(c.w), int(c.h)
		ok := r.Window.Contains(c.rect())
		if ok {
			for row := cy; row < cy+ch; row++ {
				seg := r.SegmentAt(row)
				if seg == nil || cx < seg.Lo || cx+cw > seg.Hi {
					ok = false
					break
				}
			}
		}
		if !ok {
			local[k] = false
			changed = true
		}
	}
	return changed
}
