// Package fop implements FOP — finding the optimal placement position —
// the triple-loop bottleneck of the MGL algorithm (Sec. 2.3 of the FLEX
// paper). For a target cell and its localRegion it enumerates every
// insertion point (loop 1: candidate row spans; loop 2: slot partitions;
// loop 3: the per-point operator chain), evaluates the summed displacement
// curve of each point, and returns the position with minimum added
// displacement.
//
// Per insertion point the operator chain is exactly the paper's: cell
// shifting (chain offsets in sort-ahead form, optionally re-measured with
// the original multi-pass algorithm for instrumentation), breakpoint
// emission, and the sort/merge/sum-slopes/calculate-value pipeline from
// internal/curve, in either the original five-operator or the restructured
// streaming organization.
//
// Stats count the modeled hardware's work: the FPGA sweeps every region
// cell, in both offset sweeps, at every insertion point. The host skips the
// cells it can prove never chain — those outside every row a multi-row cell
// can connect to the target's rows — and charges their visits in bulk, so
// the counts equal those of a dense sweep while the host does only the
// work that can change the result.
package fop

import (
	"github.com/flex-eda/flex/internal/curve"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

const negInf = -(1 << 50)

// Target carries the target cell's placement-relevant attributes.
type Target struct {
	GX, GY    int // global-placement position
	W, H      int
	ParityOK  func(y int) bool // row-parity predicate
	RowHeight int              // sites per row, for the vertical cost term
}

// Options selects the evaluation variants (the ablation axes of Figs. 5/6).
type Options struct {
	// Streamed selects the restructured fwdtraverse/bwdtraverse curve
	// pipeline instead of the original five-operator sequence. Results are
	// identical; only instrumentation differs.
	Streamed bool
	// MeasureOriginalShift additionally runs the original multi-pass
	// shifting algorithm per insertion point (on scratch positions) so its
	// pass counts are observable; positions are restored afterwards.
	MeasureOriginalShift bool
}

// Candidate is a scored placement option for the target.
type Candidate struct {
	X, Y      int
	Boundary2 int // slot boundary for the committing shift
	Cost      int // added displacement in sites (incl. target's own)
	Feasible  bool
}

// Better reports whether c beats o (lower cost; ties broken by lower y
// then lower x for determinism).
func (c Candidate) Better(o Candidate) bool {
	if !c.Feasible {
		return false
	}
	if !o.Feasible {
		return true
	}
	if c.Cost != o.Cost {
		return c.Cost < o.Cost
	}
	if c.Y != o.Y {
		return c.Y < o.Y
	}
	return c.X < o.X
}

// Stats aggregates the per-operator work of one FOP invocation, the raw
// material for every platform time model.
type Stats struct {
	CandidateRows   int
	InsertionPoints int
	ChainCells      int // cells visited by the offset sweeps (shift work)
	// ChainVisitsByH counts sweep visits by cell height (index min(h, 4));
	// the FPGA bandwidth model needs the multi-row access mix.
	ChainVisitsByH [5]int
	Shift          shift.Stats
	Curve          curve.Stats
	OriginalShift  shift.Stats // populated when MeasureOriginalShift is set
}

// Add accumulates other into st.
func (st *Stats) Add(other *Stats) {
	st.CandidateRows += other.CandidateRows
	st.InsertionPoints += other.InsertionPoints
	st.ChainCells += other.ChainCells
	for i := range st.ChainVisitsByH {
		st.ChainVisitsByH[i] += other.ChainVisitsByH[i]
	}
	addShift(&st.Shift, &other.Shift)
	st.Curve.RawBps += other.Curve.RawBps
	st.Curve.MergedBps += other.Curve.MergedBps
	st.Curve.SortOps += other.Curve.SortOps
	st.Curve.Traversal += other.Curve.Traversal
	addShift(&st.OriginalShift, &other.OriginalShift)
}

func addShift(dst, src *shift.Stats) {
	dst.Passes += src.Passes
	dst.SubcellVisits += src.SubcellVisits
	dst.Moves += src.Moves
	dst.SortedCells += src.SortedCells
	dst.SortOps += src.SortOps
}

// chainEntry records one cell swept into a shift chain and its offset.
type chainEntry struct {
	ci int
	o  int
}

// skipCount totals the cells one candidate row's sweeps leave out.
type skipCount struct {
	cells, subcells int
	byH             [5]int
}

// Finder runs Best while reusing its working memory across calls: every
// insertion point reuses the same chain lists, row-offset array, hinge
// buffer, and curve evaluator, and every target reuses them again. The
// zero value is ready to use. Not safe for concurrent use; concurrent Best
// calls (the batched engine's frozen evaluations) each need their own.
type Finder struct {
	order   []int // region cells ascending by x, shared by every point
	sub     []int // the cells the current candidate row's sweeps visit
	skip    skipCount
	rowLo   []int // per window row: first row of any cell touching it
	rowHi   []int // per window row: end row of any cell touching it
	spanLo  int   // the current sweep set's row span, as window rows
	spanHi  int
	rowOff  []int
	left    []chainEntry
	right   []chainEntry
	inLeft  []bool // cell index -> claimed by the left chain
	bps     []curve.Breakpoint
	eval    curve.Evaluator
	centers []int
	bounds  []int
	saved   []int
}

// Best evaluates every insertion point in the region and returns the best
// candidate, on a throwaway Finder. The region's cell positions are left
// untouched.
func Best(reg *region.Region, t Target, opt Options, st *Stats) Candidate {
	var f Finder
	return f.Best(reg, t, opt, st)
}

// Best evaluates every insertion point in the region and returns the best
// candidate. The region's cell positions are left untouched.
func (f *Finder) Best(reg *region.Region, t Target, opt Options, st *Stats) Candidate {
	if st == nil {
		st = &Stats{}
	}
	best := Candidate{Feasible: false}
	win := reg.Window

	// Ahead sort: one x-sort of the region's cells shared by every
	// insertion point, mirroring the hardware's single per-region sorter.
	order := f.xOrder(reg)
	st.Shift.SortedCells += len(order)
	if n := len(order); n > 1 {
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		st.Shift.SortOps += n * logn
	}
	f.rowOff = grow(f.rowOff, len(reg.Segments))
	f.inLeft = grow(f.inLeft, len(reg.Cells))
	clear(f.inLeft)
	f.rowReach(reg)
	f.spanLo, f.spanHi = 0, 0 // empty: matches no candidate row's span

	for y := win.Y; y+t.H <= win.Y+win.H; y++ {
		if t.ParityOK != nil && !t.ParityOK(y) {
			continue
		}
		// Target must fit the intersection of its rows' segments.
		lo0, hi0 := negInf, 1<<50
		ok := true
		for row := y; row < y+t.H; row++ {
			seg := reg.SegmentAt(row)
			if seg == nil || seg.Len() < t.W {
				ok = false
				break
			}
			lo0 = geom.Max(lo0, seg.Lo)
			hi0 = geom.Min(hi0, seg.Hi-t.W)
		}
		if !ok || lo0 > hi0 {
			continue
		}
		st.CandidateRows++
		vbase := t.RowHeight * geom.Abs(y-t.GY)

		bounds := f.slotBoundaries(reg, y, t.H)
		f.sweepSet(reg, order, y, t.H)
		// The skipped cells never chain, but the modeled hardware visits
		// each of them once per sweep at every insertion point.
		n := 2 * len(bounds)
		st.ChainCells += n * f.skip.cells
		st.Shift.SubcellVisits += n * f.skip.subcells
		for h, k := range f.skip.byH {
			st.ChainVisitsByH[h] += n * k
		}
		for _, b2 := range bounds {
			st.InsertionPoints++
			c := f.evalPoint(reg, t, y, b2, lo0, hi0, vbase, opt, st)
			if c.Better(best) {
				best = c
			}
		}
	}
	return best
}

// rowReach records, for every window row, the row span (clipped to the
// window) of the cells touching it: the step sweepSet closes over.
func (f *Finder) rowReach(reg *region.Region) {
	n := len(reg.Segments)
	f.rowLo = grow(f.rowLo, n)
	f.rowHi = grow(f.rowHi, n)
	for si := 0; si < n; si++ {
		f.rowLo[si], f.rowHi[si] = si, si+1
	}
	wy := reg.Window.Y
	for i := range reg.Cells {
		c := &reg.Cells[i]
		a, b := geom.Max(c.Y-wy, 0), geom.Min(c.Y+c.H-wy, n)
		for si := a; si < b; si++ {
			f.rowLo[si] = geom.Min(f.rowLo[si], a)
			f.rowHi[si] = geom.Max(f.rowHi[si], b)
		}
	}
}

// sweepSet selects the cells the sweeps of candidate row y must visit. A
// cell chains only through a target row or a row of a cell that already
// chained, so every chain stays inside the smallest row span that holds
// the target's rows and every row of each cell touching the span. The
// cells touching that span, in shared x-order, become f.sub; the rest are
// totalled in f.skip. A row whose span equals the previous row's reuses it.
func (f *Finder) sweepSet(reg *region.Region, order []int, y, h int) {
	lo, hi := y-reg.Window.Y, y-reg.Window.Y+h
	// Rows [s, e) have had their reach folded in; widen until closed.
	for s, e := lo, lo; s > lo || e < hi; {
		si := e
		if e < hi {
			e++
		} else {
			s--
			si = s
		}
		lo = geom.Min(lo, f.rowLo[si])
		hi = geom.Max(hi, f.rowHi[si])
	}
	if lo == f.spanLo && hi == f.spanHi {
		return
	}
	f.spanLo, f.spanHi = lo, hi
	rlo, rhi := lo+reg.Window.Y, hi+reg.Window.Y
	sub := grow(f.sub, len(order))[:0]
	f.skip = skipCount{}
	for _, ci := range order {
		c := &reg.Cells[ci]
		if c.Y < rhi && c.Y+c.H > rlo {
			sub = append(sub, ci)
			continue
		}
		f.skip.cells++
		f.skip.subcells += c.H
		f.skip.byH[minInt(c.H, 4)]++
	}
	f.sub = sub
}

// slotBoundaries returns the doubled-x boundary values that induce every
// distinct left/right partition of the cells in rows [y, y+h): one below
// the smallest doubled center, then one at each distinct doubled center.
// The returned slice is scratch memory, valid until the next call.
func (f *Finder) slotBoundaries(reg *region.Region, y, h int) []int {
	// A cell spanning several rows contributes the same doubled center to
	// each, so gathering per-row (with duplicates) and deduplicating after
	// the sort yields exactly the distinct-cell center set.
	centers := f.centers[:0]
	for row := y; row < y+h; row++ {
		seg := reg.SegmentAt(row)
		if seg == nil {
			continue
		}
		for _, ci := range seg.Cells {
			c := &reg.Cells[ci]
			centers = append(centers, 2*c.X+c.W)
		}
	}
	f.centers = centers
	if len(centers) == 0 {
		f.bounds = append(f.bounds[:0], 0)
		return f.bounds // single empty partition; boundary value irrelevant
	}
	sortInts(centers)
	out := append(f.bounds[:0], centers[0]-1)
	for i, v := range centers {
		if i > 0 && centers[i-1] == v {
			continue
		}
		out = append(out, v)
	}
	f.bounds = out
	return out
}

// evalPoint scores one insertion point: chain offsets (cell shifting in
// sort-ahead form) over the candidate row's sweep set, hinge emission, and
// curve evaluation.
func (f *Finder) evalPoint(reg *region.Region, t Target, y, b2, lo0, hi0, vbase int, opt Options, st *Stats) Candidate {
	st.Shift.Passes += 2 // one outward sweep per phase

	nSeg := len(reg.Segments)
	wy := reg.Window.Y
	rowOff := f.rowOff
	sub := f.sub
	// Only rows inside the span are ever read: every swept cell's window
	// rows lie inside it.
	span := rowOff[f.spanLo:f.spanHi]

	// Left sweep: descending x over left/none cells. A cell is in the
	// target's rows when c.Y < y+t.H && c.Y+c.H > y; among those, the
	// boundary b2 splits left (2x+w ≤ b2) from right.
	for i := range span {
		span[i] = negInf
	}
	for row := y; row < y+t.H; row++ {
		rowOff[row-wy] = 0
	}
	lo, hi := lo0, hi0
	left := f.left[:0]
	for k := len(sub) - 1; k >= 0; k-- {
		ci := sub[k]
		c := &reg.Cells[ci]
		if c.Y < y+t.H && c.Y+c.H > y && 2*c.X+c.W > b2 {
			continue // right-partition cell
		}
		o := negInf
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - wy
			if si >= 0 && si < nSeg && rowOff[si] > o {
				o = rowOff[si]
			}
		}
		st.Shift.SubcellVisits += c.H
		st.ChainCells++
		st.ChainVisitsByH[minInt(c.H, 4)]++
		if o == negInf {
			continue
		}
		o += c.W
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - wy
			if si >= 0 && si < nSeg {
				if o > rowOff[si] {
					rowOff[si] = o
				}
				seg := &reg.Segments[si]
				if v := seg.Lo + o; v > lo {
					lo = v // pushed cell must stay inside its segment
				}
			}
		}
		left = append(left, chainEntry{ci, o})
		f.inLeft[ci] = true
	}
	f.left = left

	// Right sweep: ascending x over right/none cells.
	for i := range span {
		span[i] = negInf
	}
	for row := y; row < y+t.H; row++ {
		rowOff[row-wy] = t.W
	}
	right := f.right[:0]
	for _, ci := range sub {
		c := &reg.Cells[ci]
		if (c.Y < y+t.H && c.Y+c.H > y && 2*c.X+c.W <= b2) || f.inLeft[ci] {
			// Cells already claimed by the left chain cannot be squeezed
			// from both sides; the left chain takes precedence.
			continue
		}
		o := negInf
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - wy
			if si >= 0 && si < nSeg && rowOff[si] > o {
				o = rowOff[si]
			}
		}
		st.Shift.SubcellVisits += c.H
		st.ChainCells++
		st.ChainVisitsByH[minInt(c.H, 4)]++
		if o == negInf {
			continue
		}
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - wy
			if si >= 0 && si < nSeg {
				if v := o + c.W; v > rowOff[si] {
					rowOff[si] = v
				}
				seg := &reg.Segments[si]
				if v := seg.Hi - c.W - o; v < hi {
					hi = v
				}
			}
		}
		right = append(right, chainEntry{ci, o})
	}
	f.right = right
	for _, e := range left {
		f.inLeft[e.ci] = false
	}

	if lo > hi {
		return Candidate{Feasible: false}
	}

	// Optional instrumentation: run the original multi-pass shifting on
	// scratch positions to observe its pass structure.
	if opt.MeasureOriginalShift {
		f.measureOriginal(reg, t, y, b2, lo, hi, st)
	}

	// Hinge emission: target V plus delta hinges for every chained cell.
	bps := append(f.bps[:0], curve.VHinge(t.GX, vbase))
	for _, e := range left {
		c := &reg.Cells[e.ci]
		n := len(bps)
		bps = curve.AppendHingesForPushLeft(bps, c.X, c.GX, c.X+e.o)
		bps[n].Base = 0 // delta relative to the cell's current displacement
	}
	for _, e := range right {
		c := &reg.Cells[e.ci]
		n := len(bps)
		bps = curve.AppendHingesForPush(bps, c.X, c.GX, c.X-e.o)
		bps[n].Base = 0
	}
	f.bps = bps

	var res curve.Result
	if opt.Streamed {
		res = f.eval.Streamed(bps, lo, hi, &st.Curve)
	} else {
		res = f.eval.Original(bps, lo, hi, &st.Curve)
	}
	if !res.Feasible {
		return Candidate{Feasible: false}
	}
	return Candidate{X: res.BestX, Y: y, Boundary2: b2, Cost: res.BestVal, Feasible: true}
}

// measureOriginal runs shift.Original at the clamped preferred position on
// scratch positions, accumulating its stats, then restores the region.
func (f *Finder) measureOriginal(reg *region.Region, t Target, y, b2, lo, hi int, st *Stats) {
	x0 := geom.Min(geom.Max(t.GX, lo), hi)
	saved := f.saved[:0]
	for i := range reg.Cells {
		saved = append(saved, reg.Cells[i].X)
	}
	f.saved = saved
	p := shift.Placement{TX: x0, TY: y, TW: t.W, TH: t.H, Boundary2: b2}
	shift.Original(reg, p, &st.OriginalShift)
	for i := range reg.Cells {
		reg.Cells[i].X = saved[i]
	}
	reg.SortSegmentCells()
}

// xOrder returns region cell indices sorted ascending by current x.
func (f *Finder) xOrder(reg *region.Region) []int {
	order := f.order[:0]
	for i := range reg.Cells {
		order = append(order, i)
	}
	// Insertion sort: region cell counts are small and mostly pre-sorted.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && reg.Cells[order[j]].X < reg.Cells[order[j-1]].X; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	f.order = order
	return order
}

// grow resizes s to n, reusing its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
