// Package analytical implements the purely analytical legalization baseline
// of the FLEX paper's Table 1 (ISPD'25 LEGALM: "Efficient Legalization for
// Mixed-Cell-Height Circuits with Linearized Augmented Lagrangian Method"),
// in the simplified but faithful-in-structure form the comparison needs:
//
//   - the legalization problem is relaxed into per-row quadratic programs
//     (weighted single-row placement, solved exactly by internal/abacus);
//   - multi-row cells couple rows; an augmented-Lagrangian-flavoured
//     consensus loop splits them into per-row subcells, solves all rows
//     independently, and averages the copies back together with the
//     original anchor, with the coupling weight growing per iteration;
//   - a final projection pass snaps the relaxed solution to a legal layout
//     (row-load balancing, then a bidirectional frontier sweep per panel).
//
// Runtime is modeled on an A800-class device: every iteration solves all
// rows in parallel, paying a kernel launch and a consensus synchronization,
// which is why the method lands an order of magnitude behind FLEX on
// runtime despite the hardware (the paper's Acc(I) column).
package analytical

import (
	"cmp"
	"math"
	"slices"

	"github.com/flex-eda/flex/internal/abacus"
	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

// Config parameterizes the consensus loop and the device model.
type Config struct {
	Iterations int     // consensus iterations (0 = 24)
	Rho        float64 // initial coupling weight (0 = 1.5)
	RhoGrowth  float64 // per-iteration multiplicative growth (0 = 1.15)
	// Device model (defaults approximate an NVIDIA A800).
	NsPerUnit    float64 // per-work-unit row-solver cost (0 = 0.9)
	KernelLaunch float64 // seconds per iteration kernel launch (0 = 25e-6)
	SyncPerIter  float64 // consensus + residual sync per iteration (0 = 180e-6)
}

func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 60
	}
	if c.Rho == 0 {
		c.Rho = 1.5
	}
	if c.RhoGrowth == 0 {
		c.RhoGrowth = 1.08
	}
	if c.NsPerUnit == 0 {
		// Per subcell item per outer iteration, covering the inner
		// linearized-AL line searches the outer iteration amortizes.
		c.NsPerUnit = 800
	}
	if c.KernelLaunch == 0 {
		c.KernelLaunch = 25e-6
	}
	if c.SyncPerIter == 0 {
		c.SyncPerIter = 180e-6
	}
	return c
}

// Stats records the solver's behaviour.
type Stats struct {
	Iterations    int
	RowSolves     int64
	SubcellItems  int64   // total items through the row solver
	Rebalanced    int64   // cells moved by the row-load balancer
	Repaired      int64   // cells relocated by the final fix-up pass
	MaxResidual   float64 // final max |row copy − consensus| residual
	ComputeSecond float64 // device compute time
	SyncSeconds   float64 // launches + synchronization
}

// Result is a finished analytical legalization.
type Result struct {
	Layout       *model.Layout
	Metrics      model.Metrics
	Stats        Stats
	Legal        bool
	Violations   []model.Violation
	Failed       int
	TotalSeconds float64
}

// Legalize runs the analytical baseline on a clone of l.
func Legalize(l *model.Layout, cfg Config) *Result {
	cfg = cfg.withDefaults()
	out := &Result{Layout: l.Clone()}
	ll := out.Layout

	// Pre-move: snap rows to parity; x stays at global placement.
	for i := range ll.Cells {
		c := &ll.Cells[i]
		if c.Fixed {
			continue
		}
		c.X = clamp(c.GX, 0, ll.NumSitesX-c.W)
		c.Y = snapRow(c.GY, c.H, c.Parity, ll.NumRows)
	}

	segs := buildSegments(ll)
	out.Stats.Rebalanced = balance(ll, segs)

	// The consensus sums, the row items and the row solver are reused by
	// every iteration.
	zsum := make([]float64, len(ll.Cells))
	zcnt := make([]int, len(ll.Cells))
	var items []abacus.Item
	var solver abacus.Solver
	rho := cfg.Rho
	for iter := 0; iter < cfg.Iterations; iter++ {
		out.Stats.Iterations++
		assignCells(ll, segs)
		iterItems := 0.0
		clear(zsum)
		clear(zcnt)
		maxRes := 0.0

		for row := 0; row < ll.NumRows; row++ {
			for _, seg := range segs[row] {
				if len(seg.cells) == 0 {
					continue
				}
				items = items[:0]
				for _, id := range seg.cells {
					c := &ll.Cells[id]
					// Row copies blend the consensus position with the
					// original anchor; taller cells weigh more because
					// they couple more rows.
					ref := (float64(c.GX) + rho*float64(c.X)) / (1 + rho)
					items = append(items, abacus.Item{
						ID: id, GX: int(math.Round(ref)), W: c.W,
						Weight: float64(c.H),
					})
				}
				slices.SortStableFunc(items, func(a, b abacus.Item) int {
					if a.GX != b.GX {
						return cmp.Compare(a.GX, b.GX)
					}
					return cmp.Compare(a.ID, b.ID)
				})
				pos, ok := solver.Place(items, seg.lo, seg.hi)
				out.Stats.RowSolves++
				out.Stats.SubcellItems += int64(len(items))
				iterItems += float64(len(items))
				if !ok {
					continue // overfull segment: projection handles it
				}
				for k, it := range items {
					zsum[it.ID] += float64(pos[k])
					zcnt[it.ID]++
					if r := math.Abs(float64(pos[k]) - float64(ll.Cells[it.ID].X)); r > maxRes {
						maxRes = r
					}
				}
			}
		}

		// Consensus: average the row copies with the anchor.
		for i := range ll.Cells {
			c := &ll.Cells[i]
			if c.Fixed || zcnt[i] == 0 {
				continue
			}
			xbar := (float64(c.GX) + rho*zsum[i]) / (1 + rho*float64(zcnt[i]))
			c.X = clamp(int(math.Round(xbar)), 0, ll.NumSitesX-c.W)
		}
		out.Stats.MaxResidual = maxRes
		// Device time: the row solves are parallel, but the per-item
		// inner-iteration work dominates and the projection/consensus
		// kernels stream every subcell.
		out.Stats.ComputeSecond += iterItems * cfg.NsPerUnit * 1e-9
		out.Stats.SyncSeconds += cfg.KernelLaunch + cfg.SyncPerIter
		rho *= cfg.RhoGrowth
	}

	project(ll, segs)
	out.Stats.Repaired, out.Failed = repair(ll)
	out.Metrics = model.Measure(ll)
	out.Violations = ll.Check(16)
	out.Legal = len(out.Violations) == 0 && out.Failed == 0
	out.TotalSeconds = out.Stats.ComputeSecond + out.Stats.SyncSeconds
	return out
}

// repair relocates cells still overlapping after projection to the nearest
// legal free slot (the greedy fix-up pass every analytical legalizer ends
// with). Returns (relocated, unplaceable).
func repair(l *model.Layout) (int64, int) {
	var relocated int64
	var fp forcePlacer
	var obs obstacles
	for attempt := 0; attempt < 8; attempt++ {
		vs := l.Check(0)
		offenders := map[int]bool{}
		for _, v := range vs {
			if v.Kind != "overlap" {
				continue
			}
			// Move the smaller of the pair.
			a, b := v.CellA, v.CellB
			pick := a
			if !l.Cells[a].Fixed && !l.Cells[b].Fixed {
				if l.Cells[b].Area() < l.Cells[a].Area() {
					pick = b
				}
			} else if l.Cells[a].Fixed {
				pick = b
			}
			if !l.Cells[pick].Fixed {
				offenders[pick] = true
			}
		}
		if len(offenders) == 0 {
			return relocated, 0
		}
		ids := make([]int, 0, len(offenders))
		for id := range offenders {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		obs.build(l)
		for _, id := range ids {
			if relocate(l, id, &obs) {
				relocated++
			} else if fp.place(l, id) {
				relocated++
				obs.build(l) // the placement shifted neighbours too
			}
		}
	}
	// Count what is still broken.
	rest := 0
	for _, v := range l.Check(0) {
		if v.Kind == "overlap" {
			rest++
		}
	}
	return relocated, rest
}

// forcePlacer places offenders for which no free gap exists: it runs one
// MGL-style FOP placement (internal/fop) that shifts neighbours aside —
// the local-legalization ending dense analytical flows need. One
// forcePlacer serves a whole repair pass, keeping its placed flags and its
// region, FOP and shifting scratch across windows and offenders.
type forcePlacer struct {
	placed []bool // every cell: the extraction ignores the target itself
	ext    region.Extractor
	fop    fop.Finder
	sh     shift.Shifter
}

func (fp *forcePlacer) place(l *model.Layout, id int) bool {
	if fp.placed == nil {
		fp.placed = make([]bool, len(l.Cells))
		for i := range fp.placed {
			fp.placed[i] = true
		}
	}
	c := &l.Cells[id]
	tg := fop.Target{GX: c.GX, GY: c.GY, W: c.W, H: c.H,
		ParityOK: c.Parity.AllowsRow, RowHeight: l.RowHeight}
	for n := 0; n <= 4; n++ {
		w := maxI(8*c.W, 64) << uint(n)
		h := maxI(4*c.H, 6) << uint(n)
		win := geom.NewRect(c.GX+c.W/2-w/2, c.GY+c.H/2-h/2, w, h)
		if n == 4 {
			win = l.Die()
		}
		reg := fp.ext.Extract(l, fp.placed, id, win)
		cand := fp.fop.Best(reg, tg, fop.Options{}, nil)
		if !cand.Feasible {
			continue
		}
		p := shift.Placement{TX: cand.X, TY: cand.Y, TW: c.W, TH: c.H, Boundary2: cand.Boundary2}
		if !fp.sh.SACS(reg, p, nil) {
			continue
		}
		for i := range reg.Cells {
			l.Cells[reg.Cells[i].ID].X = reg.Cells[i].X
		}
		c.X, c.Y = cand.X, cand.Y
		return true
	}
	return false
}

// obstacles indexes, for one repair attempt, the sites each cell occupies
// on every die row it covers; relocate patches the cell it moves.
type obstacles struct {
	rows    [][]span
	blocked []span // relocate's merge scratch
}

// span is cell id's occupied interval [lo, hi) on one row.
type span struct{ lo, hi, id int }

// build indexes every cell of l at its current position.
func (o *obstacles) build(l *model.Layout) {
	if o.rows == nil {
		o.rows = make([][]span, l.NumRows)
	}
	for r := range o.rows {
		o.rows[r] = o.rows[r][:0]
	}
	for id := range l.Cells {
		o.add(l, id)
	}
}

// add indexes cell id at its current position.
func (o *obstacles) add(l *model.Layout, id int) {
	c := &l.Cells[id]
	for row := maxI(0, c.Y); row < minI(l.NumRows, c.Y+c.H); row++ {
		o.rows[row] = append(o.rows[row], span{c.X, c.X + c.W, id})
	}
}

// remove drops cell id's spans at its current position.
func (o *obstacles) remove(l *model.Layout, id int) {
	c := &l.Cells[id]
	for row := maxI(0, c.Y); row < minI(l.NumRows, c.Y+c.H); row++ {
		i := slices.IndexFunc(o.rows[row], func(s span) bool { return s.id == id })
		o.rows[row] = slices.Delete(o.rows[row], i, i+1)
	}
}

// relocate moves cell id to the nearest free legal slot, treating every
// other cell in obs as an obstacle, and re-indexes the cell where it ends.
// The merged gaps depend only on the set of a row span's intervals, not on
// their order, so the slot is the one a freshly built index would give.
func relocate(l *model.Layout, id int, obs *obstacles) bool {
	c := &l.Cells[id]
	obs.remove(l, id)
	defer obs.add(l, id)
	bestX, bestY, bestCost := -1, -1, 1<<60
	for y := 0; y+c.H <= l.NumRows; y++ {
		if !c.Parity.AllowsRow(y) {
			continue
		}
		dyCost := l.RowHeight * absI(y-c.GY)
		if dyCost >= bestCost {
			continue
		}
		// Merge the blocked intervals of the row span.
		blocked := obs.blocked[:0]
		for row := y; row < y+c.H; row++ {
			blocked = append(blocked, obs.rows[row]...)
		}
		obs.blocked = blocked
		slices.SortFunc(blocked, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		cur := 0
		tryGap := func(lo, hi int) {
			if hi-lo < c.W {
				return
			}
			x := clamp(c.GX, lo, hi-c.W)
			cost := dyCost + absI(x-c.GX)
			if cost < bestCost {
				bestX, bestY, bestCost = x, y, cost
			}
		}
		for _, b := range blocked {
			if b.lo > cur {
				tryGap(cur, b.lo)
			}
			if b.hi > cur {
				cur = b.hi
			}
		}
		tryGap(cur, l.NumSitesX)
	}
	if bestY < 0 {
		return false
	}
	c.X, c.Y = bestX, bestY
	return true
}

type segment struct {
	lo, hi int
	cells  []int
}

// buildSegments computes free runs per row from fixed cells and assigns
// movable cells to them.
func buildSegments(l *model.Layout) [][]segment {
	segs := make([][]segment, l.NumRows)
	type iv struct{ lo, hi int }
	blocked := make([][]iv, l.NumRows)
	for i := range l.Cells {
		c := &l.Cells[i]
		if !c.Fixed {
			continue
		}
		for row := maxI(0, c.Y); row < minI(l.NumRows, c.Y+c.H); row++ {
			blocked[row] = append(blocked[row], iv{c.X, c.X + c.W})
		}
	}
	for row := 0; row < l.NumRows; row++ {
		ivs := blocked[row]
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		cur := 0
		for _, b := range ivs {
			if b.lo > cur {
				segs[row] = append(segs[row], segment{lo: cur, hi: b.lo})
			}
			if b.hi > cur {
				cur = b.hi
			}
		}
		if cur < l.NumSitesX {
			segs[row] = append(segs[row], segment{lo: cur, hi: l.NumSitesX})
		}
	}
	assignCells(l, segs)
	return segs
}

// assignCells (re)assigns every movable cell to the segments of the rows it
// occupies, snapping x into the bottom row's best segment.
func assignCells(l *model.Layout, segs [][]segment) {
	for row := range segs {
		for si := range segs[row] {
			segs[row][si].cells = segs[row][si].cells[:0]
		}
	}
	for i := range l.Cells {
		c := &l.Cells[i]
		if c.Fixed {
			continue
		}
		si := bestSegment(segs[c.Y], c.X, c.W)
		if si < 0 {
			continue
		}
		sg := segs[c.Y][si]
		c.X = clamp(c.X, sg.lo, sg.hi-c.W)
		for row := c.Y; row < minI(l.NumRows, c.Y+c.H); row++ {
			if sj := segmentContaining(segs[row], c.X, c.W); sj >= 0 {
				segs[row][sj].cells = append(segs[row][sj].cells, i)
			}
		}
	}
}

func bestSegment(row []segment, x, w int) int {
	best, bestDist := -1, 1<<60
	for i, s := range row {
		if s.hi-s.lo < w {
			continue
		}
		cx := clamp(x, s.lo, s.hi-w)
		d := absI(cx - x)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func segmentContaining(row []segment, x, w int) int {
	for i, s := range row {
		if x >= s.lo && x+w <= s.hi {
			return i
		}
	}
	return -1
}

// balance moves narrow single-row cells out of overfull segments into the
// nearest segment with spare capacity. Returns the number of moves.
func balance(l *model.Layout, segs [][]segment) int64 {
	var moves int64
	load := func(s *segment) int {
		total := 0
		for _, id := range s.cells {
			total += l.Cells[id].W
		}
		return total
	}
	for row := 0; row < l.NumRows; row++ {
		for si := range segs[row] {
			s := &segs[row][si]
			for load(s) > (s.hi-s.lo)*96/100 {
				pick := -1
				for k, id := range s.cells {
					c := &l.Cells[id]
					if c.H != 1 {
						continue
					}
					if pick < 0 || c.W < l.Cells[s.cells[pick]].W {
						pick = k
					}
				}
				if pick < 0 {
					break
				}
				id := s.cells[pick]
				s.cells = append(s.cells[:pick], s.cells[pick+1:]...)
				if !rehome(l, segs, id, row) {
					s.cells = append(s.cells, id)
					break
				}
				moves++
			}
		}
	}
	return moves
}

// rehome finds the nearest parity-legal row segment with room for cell id.
func rehome(l *model.Layout, segs [][]segment, id, fromRow int) bool {
	c := &l.Cells[id]
	for d := 1; d < l.NumRows; d++ {
		for _, row := range []int{fromRow - d, fromRow + d} {
			if row < 0 || row+c.H > l.NumRows || !c.Parity.AllowsRow(row) {
				continue
			}
			for si := range segs[row] {
				s := &segs[row][si]
				total := 0
				for _, o := range s.cells {
					total += l.Cells[o].W
				}
				if total+c.W <= (s.hi-s.lo)*94/100 {
					c.Y = row
					c.X = clamp(c.X, s.lo, s.hi-c.W)
					s.cells = append(s.cells, id)
					return true
				}
			}
		}
	}
	return false
}

// project snaps the relaxed solution to a legal layout. Cells are grouped
// into vertical panels (the x ranges between full-height blockages), then
// packed per panel with a forward frontier sweep and a backward repair
// sweep. Residual overlaps (overfull row spans) are left for repair.
func project(l *model.Layout, segs [][]segment) int {
	assignCells(l, segs)

	// Panels from the bottom row's segments; the benchmark generator's
	// blockages are full-height stripes, so panels are valid die-wide.
	panels := make([]segment, len(segs[0]))
	copy(panels, segs[0])
	panelOf := func(c *model.Cell) int {
		best, bestDist := -1, 1<<60
		for i, p := range panels {
			if p.hi-p.lo < c.W {
				continue
			}
			cx := clamp(c.X, p.lo, p.hi-c.W)
			if d := absI(cx - c.X); d < bestDist {
				best, bestDist = i, d
			}
		}
		return best
	}

	byPanel := make([][]int, len(panels))
	failed := 0
	for _, id := range l.MovableIDs() {
		pi := panelOf(&l.Cells[id])
		if pi < 0 {
			failed++
			continue
		}
		byPanel[pi] = append(byPanel[pi], id)
	}

	for pi, ids := range byPanel {
		p := panels[pi]
		slices.SortStableFunc(ids, func(a, b int) int {
			if l.Cells[a].X != l.Cells[b].X {
				return cmp.Compare(l.Cells[a].X, l.Cells[b].X)
			}
			return cmp.Compare(a, b)
		})
		// Forward frontier sweep.
		frontier := make([]int, l.NumRows)
		for r := range frontier {
			frontier[r] = p.lo
		}
		for _, id := range ids {
			c := &l.Cells[id]
			x := clamp(c.X, p.lo, p.hi-c.W)
			for row := c.Y; row < c.Y+c.H; row++ {
				if frontier[row] > x {
					x = frontier[row]
				}
			}
			c.X = x // may exceed p.hi-c.W; the backward sweep repairs it
			for row := c.Y; row < c.Y+c.H; row++ {
				frontier[row] = x + c.W
			}
		}
		// Backward repair sweep.
		limit := make([]int, l.NumRows)
		for r := range limit {
			limit[r] = p.hi
		}
		for k := len(ids) - 1; k >= 0; k-- {
			c := &l.Cells[ids[k]]
			x := c.X
			for row := c.Y; row < c.Y+c.H; row++ {
				if x+c.W > limit[row] {
					x = limit[row] - c.W
				}
			}
			if x < p.lo {
				failed++
				x = p.lo
			}
			c.X = x
			for row := c.Y; row < c.Y+c.H; row++ {
				if x < limit[row] {
					limit[row] = x
				}
			}
		}
	}
	return failed
}

func snapRow(gy, h int, p model.PGParity, numRows int) int {
	y := clamp(gy, 0, numRows-h)
	if p.AllowsRow(y) {
		return y
	}
	for d := 1; ; d++ {
		if y-d >= 0 && p.AllowsRow(y-d) {
			return y - d
		}
		if y+d <= numRows-h && p.AllowsRow(y+d) {
			return y + d
		}
		if y-d < 0 && y+d > numRows-h {
			return y
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if hi < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func absI(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
