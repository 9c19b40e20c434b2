// Package mgl implements the complete Multi-row Global Legalization flow of
// Fig. 3(e) in the FLEX paper — the algorithmic substrate FLEX and both
// baselines share:
//
//	a) input & pre-move   — snap cells to parity-legal rows, keep overlaps
//	b) process ordering   — pick the next unlegalized target
//	c) define localRegion — window, segments, localCells, density
//	d) FOP                — evaluate all insertion points (internal/fop)
//	e) insert & update    — commit the winning position via cell shifting
//
// The sequential engine is the reference; the multi-threaded engine
// reproduces the TCAD'22 baseline's region-parallel batching, including the
// behaviours the paper calls out: processing order deviations (quality
// loss) and per-batch synchronization (scaling saturation, Fig. 2(a)).
package mgl

import (
	"sync"

	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/order"
	"github.com/flex-eda/flex/internal/perf"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

// Config selects engine variants.
type Config struct {
	// WindowW/WindowH: initial localRegion window extents (sites, rows).
	// Zero selects defaults scaled to the cell.
	WindowW, WindowH int
	// MaxExpand bounds window-doubling attempts before the die-wide
	// fallback (default 4).
	MaxExpand int
	// Streamed selects the restructured curve pipeline inside FOP.
	Streamed bool
	// MeasureOriginalShift instruments FOP with the original multi-pass
	// shifting algorithm (slow; for breakdown experiments).
	MeasureOriginalShift bool
	// CommitOriginal commits with the original shifting algorithm instead
	// of SACS. Results are identical; op accounting differs.
	CommitOriginal bool
	// Threads > 1 enables the region-parallel batched engine.
	Threads int
	// Lookahead bounds how far past the queue head batching may scan for
	// non-conflicting targets (default 4×Threads, with Threads capped at
	// the cell count).
	Lookahead int
	// SlidingWindow enables the FLEX size+density ordering with the given
	// window length; zero uses plain size-descending order.
	SlidingWindow int
	// Weights price operations for the critical-path accounting; zero
	// value uses perf.DefaultWeights.
	Weights *perf.Weights
	// TraceFn, when set, is invoked after each target is placed by the
	// sequential engine with that target's isolated work trace. The FLEX
	// accelerator model consumes these traces.
	TraceFn func(TargetTrace)
}

// TargetTrace is the per-target work record handed to Config.TraceFn.
type TargetTrace struct {
	ID          int
	FOP         fop.Stats   // work of step d) for this target only
	Commit      shift.Stats // work of step e) for this target only
	CommitMoved int64       // cells whose position changed at commit
	LocalCells  int         // localCells in the final region
	Window      geom.Rect   // final (possibly expanded) window
	Placed      bool
}

func (c Config) weights() perf.Weights {
	if c.Weights != nil {
		return *c.Weights
	}
	return perf.DefaultWeights
}

// Stats aggregates the work of one legalization run, split by flow step so
// the platform models can price them.
type Stats struct {
	PreMoveCells int64
	OrderOps     int64
	RegionBuilds int64
	RegionCands  int64
	RegionRows   int64
	FOP          fop.Stats
	Commit       shift.Stats
	CommitCells  int64
	Placed       int64
	Expansions   int64
	Fallbacks    int64
	Failed       int64

	// Multi-threaded accounting (Threads > 1).
	Batches      int64
	BatchSizeSum int64
	Deferred     int64
	WorkSerial   float64 // serially executed work units
	WorkParallel float64 // total work units executed in parallel phases
	WorkCritical float64 // Σ over batches of the largest per-target work
}

// Result is a finished legalization.
type Result struct {
	Layout     *model.Layout
	Metrics    model.Metrics
	Stats      Stats
	Legal      bool
	Violations []model.Violation
}

// Legalize runs the configured engine on a clone of l.
func Legalize(l *model.Layout, cfg Config) *Result {
	e := newEngine(l, cfg)
	if cfg.Threads > 1 {
		e.runParallel()
	} else {
		e.runSequential()
	}
	return e.finish()
}

type engine struct {
	l       *model.Layout
	cfg     Config
	w       perf.Weights
	idx     *region.Index
	soa     *model.SoA // geometry mirror for the extraction hot path
	placed  []bool
	st      Stats
	sched   order.Scheduler  // the sequential engine's target order
	candBuf []int            // serial-path query scratch (placeOne/extract only)
	ext     region.Extractor // serial-path region scratch (placeOne/extract only)
	fop     fop.Finder       // serial-path FOP scratch (placeOne only)
	shift   shift.Shifter    // commit scratch; every commit is serial
}

func newEngine(l *model.Layout, cfg Config) *engine {
	e := &engine{
		l:   l.Clone(),
		cfg: cfg,
		w:   cfg.weights(),
	}
	if e.cfg.MaxExpand == 0 {
		e.cfg.MaxExpand = 4
	}
	if e.cfg.Lookahead == 0 {
		// A batch never scans more than the cells, so the cap changes no
		// batch; it keeps a caller's huge thread count from overflowing.
		e.cfg.Lookahead = 4 * maxInt(1, min(cfg.Threads, len(l.Cells)))
	}
	e.preMove()
	e.placed = make([]bool, len(e.l.Cells))
	e.idx = region.NewIndex(e.l, 32, 4, func(i int) bool { return e.l.Cells[i].Fixed })
	// Snapshot geometry after pre-move; commit keeps the mirror in sync.
	e.soa = model.NewSoA(e.l)
	return e
}

// preMove is step a): clamp into the die and snap to a parity-legal row.
func (e *engine) preMove() {
	for i := range e.l.Cells {
		c := &e.l.Cells[i]
		if c.Fixed {
			continue
		}
		c.X = clamp(c.GX, 0, e.l.NumSitesX-c.W)
		c.Y = snapRow(c.GY, c.H, c.Parity, e.l.NumRows)
		e.st.PreMoveCells++
		e.st.WorkSerial += e.w.PreMove
	}
}

// snapRow returns the parity-legal row nearest to gy for a cell of height h.
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
			return y // no legal row: let the checker flag it
		}
	}
}

func (e *engine) scheduler() order.Scheduler {
	if e.cfg.SlidingWindow > 0 {
		est := order.NewDensityEstimator(e.l, e.idx, 96, 12)
		return order.NewSlidingWindow(e.l, e.cfg.SlidingWindow, est)
	}
	return order.NewSizeOrder(e.l)
}

func (e *engine) runSequential() {
	e.sched = e.scheduler()
	for {
		id, ok := e.sched.Next()
		if !ok {
			break
		}
		e.st.OrderOps++
		e.st.WorkSerial += e.w.OrderOp
		beforeFOP := e.st.FOP
		beforeCommit := e.st.Commit
		beforeCommitCells := e.st.CommitCells
		tr := e.placeOne(id)
		if tr.Placed {
			// The commit moved only cells inside its window.
			e.sched.Committed(tr.Window)
		}
		delta := fopDelta(e.st.FOP, beforeFOP)
		e.st.WorkSerial += e.w.FOPWork(delta)
		if e.cfg.TraceFn != nil {
			tr.FOP = delta
			tr.Commit = shiftDelta(e.st.Commit, beforeCommit)
			tr.CommitMoved = e.st.CommitCells - beforeCommitCells
			e.cfg.TraceFn(tr)
		}
	}
}

// window returns the FOP window for a target after n expansions.
func (e *engine) window(c *model.Cell, n int) geom.Rect {
	w := e.cfg.WindowW
	h := e.cfg.WindowH
	if w == 0 {
		w = maxInt(8*c.W, 64)
	}
	if h == 0 {
		h = maxInt(4*c.H, 6)
	}
	w <<= uint(n)
	h <<= uint(n)
	cx := c.GX + c.W/2
	cy := c.GY + c.H/2
	return geom.NewRect(cx-w/2, cy-h/2, w, h)
}

// placeOne runs steps c)–e) for one target, expanding the window as needed.
func (e *engine) placeOne(id int) TargetTrace {
	c := &e.l.Cells[id]
	tg := fop.Target{
		GX: c.GX, GY: c.GY, W: c.W, H: c.H,
		ParityOK: c.Parity.AllowsRow, RowHeight: e.l.RowHeight,
	}
	opts := fop.Options{Streamed: e.cfg.Streamed, MeasureOriginalShift: e.cfg.MeasureOriginalShift}
	tr := TargetTrace{ID: id}
	for n := 0; ; n++ {
		win := e.window(c, n)
		if n >= e.cfg.MaxExpand {
			win = e.l.Die()
			e.st.Fallbacks++
		} else if n > 0 {
			e.st.Expansions++
		}
		reg := e.extract(id, win)
		tr.Window = win.Intersect(e.l.Die())
		tr.LocalCells = len(reg.Cells)
		cand := e.fop.Best(reg, tg, opts, &e.st.FOP)
		if cand.Feasible && e.commit(id, reg, cand) {
			tr.Placed = true
			return tr
		}
		if n >= e.cfg.MaxExpand {
			e.st.Failed++
			return tr
		}
	}
}

func (e *engine) extract(id int, win geom.Rect) *region.Region {
	// Reusing the query and region scratch is safe here: extract is only
	// reached from placeOne, which runs serially (sequential engine, or the
	// serial redo phase of the batched engine) and is done with one
	// region, committed or not, before it extracts the next.
	e.candBuf = e.idx.Query(win, e.candBuf[:0])
	cands := e.candBuf
	e.st.RegionBuilds++
	e.st.RegionCands += int64(len(cands))
	e.st.RegionRows += int64(win.Intersect(e.l.Die()).H)
	e.st.WorkSerial += e.w.RegionCand*float64(len(cands)) + e.w.RegionRow*float64(win.H)
	return e.ext.FromSoA(e.soa, e.placed, id, e.l.Die(), win, cands)
}

// commit is step e): run the committing shift on the region and write the
// new positions back into the layout and index.
func (e *engine) commit(id int, reg *region.Region, cand fop.Candidate) bool {
	p := shift.Placement{TX: cand.X, TY: cand.Y, TW: reg.TargetW, TH: reg.TargetH, Boundary2: cand.Boundary2}
	var ok bool
	if e.cfg.CommitOriginal {
		ok = shift.Original(reg, p, &e.st.Commit)
	} else {
		ok = e.shift.SACS(reg, p, &e.st.Commit)
	}
	if !ok {
		return false
	}
	moved := 0
	for i := range reg.Cells {
		lc := &reg.Cells[i]
		cell := &e.l.Cells[lc.ID]
		if cell.X != lc.X {
			cell.X = lc.X
			e.soa.Set(lc.ID, cell.X, cell.Y)
			e.idx.Update(lc.ID)
			moved++
		}
	}
	t := &e.l.Cells[id]
	t.X, t.Y = cand.X, cand.Y
	e.soa.Set(id, t.X, t.Y)
	e.placed[id] = true
	e.idx.Add(id)
	e.st.Placed++
	e.st.CommitCells += int64(moved) + 1
	e.st.WorkSerial += e.w.CommitCell * float64(moved+1)
	return true
}

func (e *engine) finish() *Result {
	res := &Result{
		Layout:  e.l,
		Metrics: model.Measure(e.l),
		Stats:   e.st,
	}
	res.Violations = e.l.Check(16)
	res.Legal = len(res.Violations) == 0 && e.st.Failed == 0
	return res
}

// --- multi-threaded engine (TCAD'22-style region-parallel batching) ---

type mtResult struct {
	id       int
	reg      *region.Region
	cand     fop.Candidate
	expanded geom.Rect
	fopStats fop.Stats
	work     float64
	cands    int
	rows     int
	builds   int64
}

// mtSlot is one batch position's scratch for the whole run. Only the
// goroutine evaluating that position touches it during the parallel phase,
// and the region it returns lives in ext until the position's next batch,
// so it survives the serial commit phase.
type mtSlot struct {
	ext   region.Extractor
	fop   fop.Finder
	cands []int
}

// runParallel processes batches of targets with non-overlapping windows.
// Within a batch, extraction and FOP run concurrently against a frozen
// layout; commits are serial in batch order. A worker that expanded its
// window into a peer's committed area is deterministically redone serially.
func (e *engine) runParallel() {
	queue := order.NewSizeOrder(e.l)
	var pendingQueue []int
	for {
		id, ok := queue.Next()
		if !ok {
			break
		}
		pendingQueue = append(pendingQueue, id)
	}

	// A batch holds at most threads targets and never more than the queue,
	// so every per-batch buffer is sized once to the smaller of the two (the
	// thread count comes from the caller and may be far above the cell
	// count). The slots are never appended to, so a pending region never
	// moves.
	threads := e.cfg.Threads
	n := min(threads, len(pendingQueue))
	slots := make([]mtSlot, n)
	results := make([]mtResult, n)
	batch := make([]int, 0, n)
	wins := make([]geom.Rect, 0, n)
	committed := make([]geom.Rect, 0, n)
	var rest []int
	var wg sync.WaitGroup
	for len(pendingQueue) > 0 {
		// Collect a batch of targets whose initial windows do not overlap.
		batch, wins, rest = batch[:0], wins[:0], rest[:0]
		scanned := 0
		for _, id := range pendingQueue {
			if len(batch) >= threads || scanned >= e.cfg.Lookahead {
				rest = append(rest, id)
				continue
			}
			scanned++
			win := e.window(&e.l.Cells[id], 0)
			conflict := false
			for _, w := range wins {
				if w.Overlaps(win) {
					conflict = true
					break
				}
			}
			if conflict {
				rest = append(rest, id)
				continue
			}
			batch = append(batch, id)
			wins = append(wins, win)
		}
		// The old queue's memory takes the next batch's leftovers.
		pendingQueue, rest = rest, pendingQueue
		if len(batch) == 0 {
			break
		}
		e.st.Batches++
		e.st.BatchSizeSum += int64(len(batch))
		e.st.OrderOps += int64(len(batch))
		e.st.WorkSerial += e.w.OrderOp * float64(len(batch))

		// Parallel phase: extract + FOP against the frozen layout, one
		// goroutine per batch position.
		results = results[:len(batch)]
		for i, id := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = e.evaluateFrozen(id, &slots[i])
			}()
		}
		wg.Wait()

		// Account parallel work: total and per-batch critical path.
		maxWork := 0.0
		for i := range results {
			e.st.WorkParallel += results[i].work
			if results[i].work > maxWork {
				maxWork = results[i].work
			}
			e.st.FOP.Add(&results[i].fopStats)
			e.st.RegionBuilds += results[i].builds
			e.st.RegionCands += int64(results[i].cands)
			e.st.RegionRows += int64(results[i].rows)
		}
		e.st.WorkCritical += maxWork

		// Serial commit phase.
		committed = committed[:0]
		for i := range results {
			r := &results[i]
			conflict := false
			for _, w := range committed {
				if w.Overlaps(r.expanded) {
					conflict = true
					break
				}
			}
			if conflict || !r.cand.Feasible {
				// Redo sequentially against the updated layout.
				e.st.Deferred++
				before := e.st.FOP
				e.placeOne(r.id)
				delta := fopDelta(e.st.FOP, before)
				e.st.WorkSerial += e.w.FOPWork(delta)
				committed = append(committed, e.window(&e.l.Cells[r.id], 0))
				continue
			}
			if !e.commit(r.id, r.reg, r.cand) {
				e.st.Deferred++
				before := e.st.FOP
				e.placeOne(r.id)
				delta := fopDelta(e.st.FOP, before)
				e.st.WorkSerial += e.w.FOPWork(delta)
			}
			committed = append(committed, r.expanded)
		}
	}
}

// evaluateFrozen runs steps c)+d) for one target without committing,
// expanding the window as needed, on slot's scratch. Safe to run
// concurrently with other slots: the layout and placed flags are not
// mutated during the parallel phase.
func (e *engine) evaluateFrozen(id int, slot *mtSlot) mtResult {
	c := &e.l.Cells[id]
	tg := fop.Target{
		GX: c.GX, GY: c.GY, W: c.W, H: c.H,
		ParityOK: c.Parity.AllowsRow, RowHeight: e.l.RowHeight,
	}
	opts := fop.Options{Streamed: e.cfg.Streamed, MeasureOriginalShift: e.cfg.MeasureOriginalShift}
	out := mtResult{id: id}
	for n := 0; ; n++ {
		win := e.window(c, n)
		if n >= e.cfg.MaxExpand {
			win = e.l.Die()
		}
		slot.cands = e.idx.Query(win, slot.cands[:0])
		cands := slot.cands
		out.builds++
		out.cands += len(cands)
		out.rows += win.Intersect(e.l.Die()).H
		out.work += e.w.RegionCand*float64(len(cands)) + e.w.RegionRow*float64(win.H)
		reg := slot.ext.FromSoA(e.soa, e.placed, id, e.l.Die(), win, cands)
		var st fop.Stats
		cand := slot.fop.Best(reg, tg, opts, &st)
		out.fopStats.Add(&st)
		out.work += e.w.FOPWork(st)
		if cand.Feasible || n >= e.cfg.MaxExpand {
			out.reg = reg
			out.cand = cand
			out.expanded = win
			return out
		}
	}
}

func fopDelta(after, before fop.Stats) fop.Stats {
	d := fop.Stats{
		CandidateRows:   after.CandidateRows - before.CandidateRows,
		InsertionPoints: after.InsertionPoints - before.InsertionPoints,
		ChainCells:      after.ChainCells - before.ChainCells,
	}
	for i := range d.ChainVisitsByH {
		d.ChainVisitsByH[i] = after.ChainVisitsByH[i] - before.ChainVisitsByH[i]
	}
	d.Shift = shiftDelta(after.Shift, before.Shift)
	d.OriginalShift = shiftDelta(after.OriginalShift, before.OriginalShift)
	d.Curve.RawBps = after.Curve.RawBps - before.Curve.RawBps
	d.Curve.MergedBps = after.Curve.MergedBps - before.Curve.MergedBps
	d.Curve.SortOps = after.Curve.SortOps - before.Curve.SortOps
	d.Curve.Traversal = after.Curve.Traversal - before.Curve.Traversal
	return d
}

func shiftDelta(after, before shift.Stats) shift.Stats {
	return shift.Stats{
		Passes:        after.Passes - before.Passes,
		SubcellVisits: after.SubcellVisits - before.SubcellVisits,
		Moves:         after.Moves - before.Moves,
		SortedCells:   after.SortedCells - before.SortedCells,
		SortOps:       after.SortOps - before.SortOps,
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
