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
// One engine runs the flow under three schedules. The sequential one is
// the reference (and, traced, FLEX's); the multi-threaded one reproduces
// the TCAD'22 baseline's region-parallel batching, including the behaviours
// the paper calls out: processing order deviations (quality loss) and
// per-batch synchronization (scaling saturation, Fig. 2(a)); and the GPU
// rounds reproduce the DATE'22 CPU-GPU baseline (gpu.go). The schedules
// share pre-move, the window ladder, the per-target evaluation, commit and
// the disjoint-window batch collector, and differ only in order and
// pricing. The sequential schedule can also record its run step by step
// in a Trail and replay, for an edited input, every step the edit does not
// reach (trail.go).
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

// maxExpand is the number of window doublings before the die-wide
// fallback.
const maxExpand = 4

// Config selects engine variants. Every engine prices its work with
// perf.DefaultWeights and commits with SACS.
type Config struct {
	// Streamed selects the restructured curve pipeline inside FOP.
	Streamed bool
	// MeasureOriginalShift instruments FOP with the original multi-pass
	// shifting algorithm (slow; for breakdown experiments).
	MeasureOriginalShift bool
	// Threads > 1 enables the region-parallel batched engine. A batch
	// scans at most 4×Threads targets past the queue head for ones whose
	// windows do not conflict.
	Threads int
	// SlidingWindow enables the FLEX size+density ordering with the given
	// window length; zero uses plain size-descending order.
	SlidingWindow int
	// TraceFn, when set, is invoked after each target is placed by the
	// sequential engine with that target's isolated work trace. The FLEX
	// accelerator model consumes these traces.
	TraceFn func(TargetTrace)
	// Trail, when set, records the sequential engine's steps and replays
	// those of the finished trail it was built from (see Trail). Results,
	// stats and traces are those of a run without it; the batched engine
	// ignores it.
	Trail *Trail
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
	placed  []bool
	st      Stats
	sched   order.Scheduler  // the sequential engine's target order
	candBuf []int            // serial-path query scratch
	ext     region.Extractor // serial-path region scratch
	fop     fop.Finder       // serial-path FOP scratch
	shift   shift.Shifter    // commit scratch; every commit is serial
	rec     *Trail           // the sequential run's record; nil for none
	// Per-batch buffers: a batch's targets and initial windows, their
	// evaluations and the windows committed so far (sized once per run by
	// sizeBatches), and the spare queue the next batch's leftovers fill.
	batch, spare []int
	wins, done   []geom.Rect
	evals        []evaluation
}

func newEngine(l *model.Layout, cfg Config) *engine {
	e := &engine{
		l:   l.Clone(),
		cfg: cfg,
		w:   perf.DefaultWeights,
	}
	e.preMove()
	e.placed = make([]bool, len(e.l.Cells))
	e.idx = region.NewIndex(e.l, 32, 4, func(i int) bool { return e.l.Cells[i].Fixed })
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
	rp := e.cfg.Trail.begin(e)
	e.sched = e.scheduler()
	for {
		id, ok := e.sched.Next()
		if !ok {
			break
		}
		e.st.OrderOps++
		e.st.WorkSerial += e.w.OrderOp
		tr := e.step(rp, id)
		if tr.Placed {
			// The commit moved only cells inside its window.
			e.sched.Committed(tr.Window)
		}
		if e.cfg.TraceFn != nil {
			e.cfg.TraceFn(tr)
		}
	}
}

// step makes target id's step, replaying it from rp when rp allows, and
// records it on the run's trail.
func (e *engine) step(rp *replay, id int) TargetTrace {
	t := e.rec
	if t == nil {
		return e.runStep(id)
	}
	cand0, move0 := len(t.cands), len(t.moves)
	var tr TargetTrace
	if s := rp.match(e, id); s != nil {
		tr = e.replayStep(rp, id, s)
		t.replayed++
	} else {
		tr = e.runStep(id)
		rp.ran(e, id, t.moves[move0:])
		t.ran++
	}
	c := &e.l.Cells[id]
	t.record(&tr, c.X, c.Y, cand0, move0)
	return tr
}

// runStep runs target id's step, adds its FOP work and returns its trace
// with the step's FOP and commit work.
func (e *engine) runStep(id int) TargetTrace {
	beforeFOP := e.st.FOP
	beforeCommit := e.st.Commit
	beforeCommitCells := e.st.CommitCells
	tr := e.placeOne(id)
	tr.FOP = fopDelta(e.st.FOP, beforeFOP)
	tr.Commit = shiftDelta(e.st.Commit, beforeCommit)
	tr.CommitMoved = e.st.CommitCells - beforeCommitCells
	e.st.WorkSerial += e.w.FOPWork(tr.FOP)
	return tr
}

// window is the window ladder: the FOP window for a target after n
// expansions, doubling in both extents each time from a start scaled to
// the cell, and the whole die from maxExpand expansions on.
func (e *engine) window(c *model.Cell, n int) geom.Rect {
	if n >= maxExpand {
		return e.l.Die()
	}
	w := max(8*c.W, 64) << n
	h := max(4*c.H, 6) << n
	return geom.NewRect(c.GX+c.W/2-w/2, c.GY+c.H/2-h/2, w, h)
}

func (e *engine) target(c *model.Cell) fop.Target {
	return fop.Target{
		GX: c.GX, GY: c.GY, W: c.W, H: c.H,
		ParityOK: c.Parity.AllowsRow, RowHeight: e.l.RowHeight,
	}
}

func (e *engine) fopOptions() fop.Options {
	return fop.Options{Streamed: e.cfg.Streamed, MeasureOriginalShift: e.cfg.MeasureOriginalShift}
}

// placeOne runs steps c)–e) for one target, expanding the window as needed.
func (e *engine) placeOne(id int) TargetTrace {
	c := &e.l.Cells[id]
	tg := e.target(c)
	opts := e.fopOptions()
	tr := TargetTrace{ID: id}
	for n := 0; ; n++ {
		win := e.window(c, n)
		e.widen(n)
		reg := e.extract(id, win)
		tr.Window = win.Intersect(e.l.Die())
		tr.LocalCells = len(reg.Cells)
		cand := e.fop.Best(reg, tg, opts, &e.st.FOP)
		if cand.Feasible && e.commit(id, reg, cand) {
			tr.Placed = true
			return tr
		}
		if n >= maxExpand {
			e.st.Failed++
			return tr
		}
	}
}

// widen counts the n-th window of a target's ladder: an expansion, or from
// maxExpand on the die-wide fallback.
func (e *engine) widen(n int) {
	if n >= maxExpand {
		e.st.Fallbacks++
	} else if n > 0 {
		e.st.Expansions++
	}
}

func (e *engine) extract(id int, win geom.Rect) *region.Region {
	// Reusing the query and region scratch is safe here: extract is only
	// reached from placeOne, which runs serially (sequential engine, or the
	// serial redo phase of the batched engine) and is done with one
	// region, committed or not, before it extracts the next.
	e.candBuf = e.idx.Query(win, e.candBuf[:0])
	cands := e.candBuf
	e.countRegion(win, len(cands))
	if e.rec != nil {
		e.rec.cands = append(e.rec.cands, int32(len(cands)))
	}
	return e.ext.From(e.l, e.placed, id, win, cands)
}

// countRegion adds one region build over win from cands candidates to the
// run's counters and serial work.
func (e *engine) countRegion(win geom.Rect, cands int) {
	e.st.RegionBuilds++
	e.st.RegionCands += int64(cands)
	e.st.RegionRows += int64(win.Intersect(e.l.Die()).H)
	e.st.WorkSerial += e.w.RegionCand*float64(cands) + e.w.RegionRow*float64(win.H)
}

// commit is step e): run SACS on the region and write the new positions
// back into the layout and index.
func (e *engine) commit(id int, reg *region.Region, cand fop.Candidate) bool {
	p := shift.Placement{TX: cand.X, TY: cand.Y, TW: reg.TargetW, TH: reg.TargetH, Boundary2: cand.Boundary2}
	if !e.shift.SACS(reg, p, &e.st.Commit) {
		return false
	}
	moved := 0
	for i := range reg.Cells {
		lc := &reg.Cells[i]
		cell := &e.l.Cells[lc.ID]
		if cell.X != lc.X {
			cell.X = lc.X
			e.idx.Update(lc.ID)
			moved++
			if e.rec != nil {
				e.rec.moves = append(e.rec.moves, move{id: int32(lc.ID), x: lc.X})
			}
		}
	}
	e.place(id, cand.X, cand.Y, moved)
	return true
}

// place puts target id at (x, y) after a commit that moved moved other
// cells.
func (e *engine) place(id, x, y, moved int) {
	t := &e.l.Cells[id]
	t.X, t.Y = x, y
	e.placed[id] = true
	e.idx.Add(id)
	e.st.Placed++
	e.st.CommitCells += int64(moved) + 1
	e.st.WorkSerial += e.w.CommitCell * float64(moved+1)
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

// sizeBatches sizes the per-batch buffers once for batches of at most n
// targets.
func (e *engine) sizeBatches(n int) {
	e.batch = make([]int, 0, n)
	e.wins = make([]geom.Rect, 0, n)
	e.done = make([]geom.Rect, 0, n)
	e.evals = make([]evaluation, n)
}

// collect is the disjoint-window batch collector: it fills e.batch with up
// to limit targets from the head of queue whose initial windows are
// pairwise disjoint, scanning at most lookahead of them, and e.wins with
// their windows. When nothing qualifies (a limit or lookahead below one)
// it takes the head alone, so every call makes progress. It returns the
// targets left, in queue order, in e.spare's memory; queue's memory
// becomes the next call's spare.
func (e *engine) collect(queue []int, limit, lookahead int) []int {
	batch, wins, rest := e.batch[:0], e.wins[:0], e.spare[:0]
	scanned := 0
	for _, id := range queue {
		if len(batch) >= limit || scanned >= lookahead {
			rest = append(rest, id)
			continue
		}
		scanned++
		win := e.window(&e.l.Cells[id], 0)
		if overlapsAny(wins, win) {
			rest = append(rest, id)
			continue
		}
		batch = append(batch, id)
		wins = append(wins, win)
	}
	if len(batch) == 0 && len(rest) > 0 {
		batch = append(batch, rest[0])
		rest = rest[1:]
	}
	e.batch, e.wins, e.spare = batch, wins, queue[:0]
	return rest
}

func overlapsAny(ws []geom.Rect, r geom.Rect) bool {
	for _, w := range ws {
		if w.Overlaps(r) {
			return true
		}
	}
	return false
}

// --- multi-threaded engine (TCAD'22-style region-parallel batching) ---

// evaluation is one batch target's frozen steps c)+d) and their work;
// the FOP counters go to the caller's Stats.
type evaluation struct {
	reg      *region.Region
	cand     fop.Candidate
	expanded geom.Rect
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
	stats fop.Stats // the current batch's FOP counters
}

// runParallel processes batches of targets with non-overlapping windows.
// Within a batch, extraction and FOP run concurrently against a frozen
// layout; commits are serial in batch order. A worker that expanded its
// window into a peer's committed area is deterministically redone serially.
func (e *engine) runParallel() {
	var queue []int
	for sched := order.NewSizeOrder(e.l); ; {
		id, ok := sched.Next()
		if !ok {
			break
		}
		queue = append(queue, id)
	}
	// A batch holds at most threads targets and never more than the queue,
	// so the slots and per-batch buffers are sized once to the smaller of
	// the two (the thread count comes from the caller and may be far above
	// the cell count). The slots are never appended to, so a pending region
	// never moves.
	threads := e.cfg.Threads
	n := min(threads, len(queue))
	slots := make([]mtSlot, n)
	e.sizeBatches(n)
	var wg sync.WaitGroup
	for len(queue) > 0 {
		// The lookahead is 4×Threads; capping it at 4× the queue changes
		// no batch, since no batch scans past the queue.
		queue = e.collect(queue, threads, 4*n)
		batch := e.batch
		e.st.Batches++
		e.st.BatchSizeSum += int64(len(batch))
		e.st.OrderOps += int64(len(batch))
		e.st.WorkSerial += e.w.OrderOp * float64(len(batch))

		// Parallel phase: extract + FOP against the frozen layout, one
		// goroutine per batch position.
		evals := e.evals[:len(batch)]
		for i, id := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := &slots[i]
				s.stats = fop.Stats{}
				evals[i] = e.evaluate(id, &s.ext, &s.fop, &s.cands, &s.stats)
			}()
		}
		wg.Wait()

		// Account parallel work: total and per-batch critical path.
		maxWork := 0.0
		for i := range evals {
			e.st.WorkParallel += evals[i].work
			if evals[i].work > maxWork {
				maxWork = evals[i].work
			}
			e.st.FOP.Add(&slots[i].stats)
			e.st.RegionBuilds += evals[i].builds
			e.st.RegionCands += int64(evals[i].cands)
			e.st.RegionRows += int64(evals[i].rows)
		}
		e.st.WorkCritical += maxWork

		// Serial commit phase.
		done := e.done[:0]
		for i, id := range batch {
			r := &evals[i]
			if !r.cand.Feasible || overlapsAny(done, r.expanded) {
				// Redo sequentially against the updated layout.
				e.redo(id)
				done = append(done, e.window(&e.l.Cells[id], 0))
				continue
			}
			if !e.commit(id, r.reg, r.cand) {
				e.redo(id)
			}
			done = append(done, r.expanded)
		}
		e.done = done
	}
}

// redo places a deferred batch target serially, priced as serial work.
func (e *engine) redo(id int) {
	e.st.Deferred++
	before := e.st.FOP
	e.placeOne(id)
	e.st.WorkSerial += e.w.FOPWork(fopDelta(e.st.FOP, before))
}

// evaluate runs steps c)+d) for one target without committing, expanding
// the window until FOP finds a position or the die-wide fallback, on x,
// f and cands as scratch, and adds its FOP counters to fst. The region
// lives in x until x's next extraction. Safe to run concurrently on
// distinct scratch: the layout and placed flags are not mutated while a
// batch evaluates.
func (e *engine) evaluate(id int, x *region.Extractor, f *fop.Finder, cands *[]int, fst *fop.Stats) evaluation {
	c := &e.l.Cells[id]
	tg := e.target(c)
	opts := e.fopOptions()
	var out evaluation
	for n := 0; ; n++ {
		win := e.window(c, n)
		*cands = e.idx.Query(win, (*cands)[:0])
		out.builds++
		out.cands += len(*cands)
		out.rows += win.Intersect(e.l.Die()).H
		out.work += e.w.RegionCand*float64(len(*cands)) + e.w.RegionRow*float64(win.H)
		reg := x.From(e.l, e.placed, id, win, *cands)
		var st fop.Stats
		cand := f.Best(reg, tg, opts, &st)
		fst.Add(&st)
		out.work += e.w.FOPWork(st)
		if cand.Feasible || n >= maxExpand {
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
