package mgl

import (
	"slices"
	"unsafe"

	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/shift"
)

// Trail records a serial engine run step by step, so that a later run of
// an edited input replays every step the edit left alone instead of
// running it. A step is one target's window ladder, region extraction,
// FOP and commit. It reads only the target's attributes, the die and row
// height, the engine configuration, and the placed and fixed cells that
// overlap its last window: every earlier window of the ladder lies inside
// the last, and the die-wide fallback is joined with the widest ladder
// window. Other cells' IDs matter only through their relative order,
// because regions sort their cells by ID.
//
// A run replays the trail it was built from (its source) by pairing cells
// by name; a name found in only one layout, or more than once in either,
// leaves its cells unpaired. Nothing replays when the dies, row heights or
// configurations differ, or when paired cells are in a different relative
// order. Otherwise the run replays a step of the source when the step is
// the source's next one not yet accounted for, its target is the run's
// current target with unchanged attributes, and no cell that differs
// between the two runs overlaps the step's last window in either run's
// state. A cell differs when it is unpaired or its attributes, placed flag
// or position differ. Before each step the run applies every source step
// whose target it has already processed or does not hold, so the source's
// state, from pre-move on, stays advanced to the step it compares against.
// A replayed step applies the recorded result and makes the counter
// updates, work additions and trace of the step it stands for, so a run
// through a trail has the result, Stats and traces of one without it.
//
// A run records every step, replayed ones included, so that edits of an
// edited input replay too. The step records hold no pointer, so the
// collector never scans them. A trail serves one run; once sealed it is
// never written again and any number of runs may replay from it at once.
type Trail struct {
	from *Trail // the finished trail this run replays; nil for none

	// The recorded run's input after pre-move, and its configuration.
	numSitesX, numRows, rowHeight int
	cfg                           stepConfig
	cells                         []model.Cell

	steps []step
	cands []int32 // each tried window's candidate count, steps in order
	moves []move  // each commit's moved cells and their new X, steps in order

	replayed, ran int
}

// stepConfig is the part of Config a step reads, beside the order the
// scheduler keeps.
type stepConfig struct {
	streamed, measureShift bool
	slidingWindow          int
}

// step is one recorded target: its windows, its result and its work.
type step struct {
	target int32 // cell ID in the recorded run
	placed bool
	wins   int32 // windows tried; their counts follow in Trail.cands
	moved  int32 // cells the commit moved; they follow in Trail.moves
	local  int32 // localCells in the final region
	x, y   int   // the target's position when placed
	fop    fop.Stats
	commit shift.Stats
}

// move is one cell a commit shifted, and its new X.
type move struct {
	id int32
	x  int
}

// NewTrail returns an empty trail whose run replays the finished trail
// from (nil for none).
func NewTrail(from *Trail) *Trail {
	return &Trail{from: from}
}

// Seal ends the run: the trail drops the trail it replayed from, so that a
// stored trail holds only its own run and keeps no other trail alive.
func (t *Trail) Seal() { t.from = nil }

// Replayed counts the steps the run replayed.
func (t *Trail) Replayed() int { return t.replayed }

// Ran counts the steps the run ran.
func (t *Trail) Ran() int { return t.ran }

// ApproxBytes bounds the trail's resident footprint: the allocations
// behind its cell, step, window and move slices, and the cell names it
// keeps alive.
func (t *Trail) ApproxBytes() int64 {
	if t == nil {
		return 0
	}
	n := allocBytes(int64(unsafe.Sizeof(*t))) +
		allocBytes(int64(cap(t.cells))*int64(unsafe.Sizeof(model.Cell{}))) +
		allocBytes(int64(cap(t.steps))*int64(unsafe.Sizeof(step{}))) +
		allocBytes(int64(cap(t.cands))*int64(unsafe.Sizeof(int32(0)))) +
		allocBytes(int64(cap(t.moves))*int64(unsafe.Sizeof(move{})))
	for i := range t.cells {
		n += int64(len(t.cells[i].Name))
	}
	return n
}

// allocBytes bounds the heap an allocation of b bytes takes: Go's
// allocator rounds an object of up to 32 KiB up to its size class, which
// wastes less than an eighth of it, and a larger one up to whole 8 KiB
// pages.
func allocBytes(b int64) int64 {
	if b > 32<<10 {
		return (b + 8<<10 - 1) &^ (8<<10 - 1)
	}
	return b + b/8 + 16
}

func (c Config) steps() stepConfig {
	return stepConfig{streamed: c.Streamed, measureShift: c.MeasureOriginalShift, slidingWindow: c.SlidingWindow}
}

// begin starts recording e's run, whose layout has just been pre-moved,
// and returns the replay of the trail's source, or nil when there is
// nothing to replay. A nil trail records nothing.
func (t *Trail) begin(e *engine) *replay {
	if t == nil {
		return nil
	}
	e.rec = t
	l := e.l
	t.numSitesX, t.numRows, t.rowHeight = l.NumSitesX, l.NumRows, l.RowHeight
	t.cfg = e.cfg.steps()
	t.cells = slices.Clone(l.Cells)
	// One step per movable cell, each trying at least one window.
	t.steps = make([]step, 0, e.st.PreMoveCells)
	t.cands = make([]int32, 0, e.st.PreMoveCells)
	return newReplay(e, t.from)
}

// record appends the step just made for tr's target, whose windows and
// moves the trail gained from cand0 and move0 on.
func (t *Trail) record(tr *TargetTrace, x, y, cand0, move0 int) {
	t.steps = append(t.steps, step{
		target: int32(tr.ID), placed: tr.Placed,
		wins: int32(len(t.cands) - cand0), moved: int32(len(t.moves) - move0),
		local: int32(tr.LocalCells), x: x, y: y,
		fop: tr.FOP, commit: tr.Commit,
	})
}

// replay is one run's view of the finished trail it replays: the cell
// pairing, the source run's state advanced step by step, and the set of
// cells that differ between the two runs.
type replay struct {
	src   *Trail
	srcOf []int32 // run cell -> paired source cell, -1 for none
	runOf []int32 // source cell -> paired run cell, -1 for none

	cells  []model.Cell // the source run's cells, advanced with its steps
	placed []bool       // the source run's placed flags
	done   []bool       // run cells whose step has been made
	next   int          // source steps applied so far
	cand   int          // their windows' offset in src.cands
	move   int          // their moves' offset in src.moves

	// diff holds the differing cells: a run cell by its ID, an unpaired
	// source cell by len(srcOf) + its ID. at is each key's position in
	// diff, -1 for none.
	diff []int32
	at   []int32
}

// newReplay pairs e's cells with src's and sets up the replay, or returns
// nil when src cannot replay a step of e's run.
func newReplay(e *engine, src *Trail) *replay {
	l := e.l
	if src == nil || len(src.steps) == 0 || src.numSitesX != l.NumSitesX ||
		src.numRows != l.NumRows || src.rowHeight != l.RowHeight || src.cfg != e.cfg.steps() {
		return nil
	}
	n, m := len(l.Cells), len(src.cells)
	p := &replay{
		src:   src,
		srcOf: make([]int32, n),
		runOf: make([]int32, m),
		done:  make([]bool, n),
	}
	// A name the source holds twice pairs nothing; a name the run holds
	// twice claims its source cell twice and pairs neither.
	byName := make(map[string]int32, m)
	for s := range src.cells {
		name := src.cells[s].Name
		if _, dup := byName[name]; dup {
			byName[name] = -1
		} else {
			byName[name] = int32(s)
		}
		p.runOf[s] = -1
	}
	for r := range l.Cells {
		s, ok := byName[l.Cells[r].Name]
		if !ok {
			s = -1
		}
		p.srcOf[r] = s
		if s >= 0 {
			if p.runOf[s] == -1 {
				p.runOf[s] = int32(r)
			} else {
				p.runOf[s] = -2
			}
		}
	}
	last, pairs := int32(-1), 0
	for r, s := range p.srcOf {
		if s < 0 {
			continue
		}
		if p.runOf[s] < 0 {
			p.srcOf[r] = -1
			continue
		}
		if s < last {
			return nil // paired cells in a different relative order
		}
		last = s
		pairs++
	}
	if pairs == 0 {
		return nil
	}
	p.cells = slices.Clone(src.cells)
	p.placed = make([]bool, m)
	p.at = make([]int32, n+m)
	for k := range p.at {
		p.at[k] = -1
	}
	for r, s := range p.srcOf {
		p.set(int32(r), s < 0 || !p.same(e, int32(r), s))
	}
	for s, r := range p.runOf {
		if r < 0 {
			p.runOf[s] = -1
			p.set(int32(n+s), true)
		}
	}
	return p
}

// match returns the source step the run replays for its target id, or nil
// when the step must run. It first applies every source step whose target
// the run has already processed or does not hold.
func (p *replay) match(e *engine, id int) *step {
	if p == nil {
		return nil
	}
	steps := p.src.steps
	for p.next < len(steps) {
		s := &steps[p.next]
		if r := p.runOf[s.target]; r >= 0 && !p.done[r] {
			break
		}
		p.apply(e, s)
	}
	if p.next == len(steps) {
		return nil
	}
	s := &steps[p.next]
	if int(p.runOf[s.target]) != id || p.at[id] >= 0 {
		return nil // another target, or one whose attributes changed
	}
	reach := e.window(&e.l.Cells[id], int(s.wins)-1)
	if s.wins > maxExpand {
		reach = reach.Union(e.window(&e.l.Cells[id], maxExpand-1))
	}
	for _, k := range p.diff {
		if p.reads(e, k, reach) {
			return nil
		}
	}
	return s
}

// reads reports whether differing cell k is placed or fixed and overlaps
// reach in either run's state.
func (p *replay) reads(e *engine, k int32, reach geom.Rect) bool {
	s := k - int32(len(p.srcOf))
	if s < 0 {
		if c := &e.l.Cells[k]; (c.Fixed || e.placed[k]) && c.Rect().Overlaps(reach) {
			return true
		}
		if s = p.srcOf[k]; s < 0 {
			return false
		}
	}
	c := &p.cells[s]
	return (c.Fixed || p.placed[s]) && c.Rect().Overlaps(reach)
}

// apply advances the source run's state over its next step and updates
// the differing set for the cells the step touched.
func (p *replay) apply(e *engine, s *step) {
	moves := p.src.moves[p.move : p.move+int(s.moved)]
	p.next++
	p.cand += int(s.wins)
	p.move += int(s.moved)
	if !s.placed {
		return // a failed step changes nothing
	}
	t := &p.cells[s.target]
	t.X, t.Y = s.x, s.y
	p.placed[s.target] = true
	p.touchSource(e, s.target)
	for _, m := range moves {
		p.cells[m.id].X = m.x
		p.touchSource(e, m.id)
	}
}

// ran marks the run's target id done after a step that ran, and updates
// the differing set for the cells it touched: the target and moves.
func (p *replay) ran(e *engine, id int, moves []move) {
	if p == nil {
		return
	}
	p.done[id] = true
	p.touchRun(e, int32(id))
	for _, m := range moves {
		p.touchRun(e, m.id)
	}
}

func (p *replay) touchRun(e *engine, r int32) {
	if s := p.srcOf[r]; s >= 0 {
		p.set(r, !p.same(e, r, s))
	}
}

func (p *replay) touchSource(e *engine, s int32) {
	if r := p.runOf[s]; r >= 0 {
		p.set(r, !p.same(e, r, s))
	}
}

// same reports whether run cell r and its paired source cell s agree in
// attributes, placed flag and position.
func (p *replay) same(e *engine, r, s int32) bool {
	a, b := &e.l.Cells[r], &p.cells[s]
	return e.placed[r] == p.placed[s] && a.X == b.X && a.Y == b.Y && a.GX == b.GX && a.GY == b.GY &&
		a.W == b.W && a.H == b.H && a.Parity == b.Parity && a.Fixed == b.Fixed
}

// set adds key k to the differing set or removes it.
func (p *replay) set(k int32, differs bool) {
	i := p.at[k]
	switch {
	case differs && i < 0:
		p.at[k] = int32(len(p.diff))
		p.diff = append(p.diff, k)
	case !differs && i >= 0:
		last := p.diff[len(p.diff)-1]
		p.diff[i], p.at[last] = last, i
		p.diff = p.diff[:len(p.diff)-1]
		p.at[k] = -1
	}
}

// replayStep applies source step s to target id: the counter updates and
// work additions of its windows, FOP and commit in the order placeOne and
// runSequential make them, the recorded moves and position, and the
// step's trace.
func (e *engine) replayStep(p *replay, id int, s *step) TargetTrace {
	c := &e.l.Cells[id]
	tr := TargetTrace{ID: id, FOP: s.fop, Commit: s.commit, LocalCells: int(s.local), Placed: s.placed}
	for n, k := range p.src.cands[p.cand : p.cand+int(s.wins)] {
		win := e.window(c, n)
		e.widen(n)
		e.countRegion(win, int(k))
		e.rec.cands = append(e.rec.cands, k)
		tr.Window = win.Intersect(e.l.Die())
	}
	e.st.FOP.Add(&s.fop)
	e.st.Commit.Add(&s.commit)
	if s.placed {
		moves := p.src.moves[p.move : p.move+int(s.moved)]
		for _, m := range moves {
			r := p.runOf[m.id]
			e.l.Cells[r].X = m.x
			e.idx.Update(int(r))
			e.rec.moves = append(e.rec.moves, move{id: r, x: m.x})
		}
		e.place(id, s.x, s.y, len(moves))
		tr.CommitMoved = int64(len(moves)) + 1
	} else {
		e.st.Failed++
	}
	e.st.WorkSerial += e.w.FOPWork(s.fop)
	p.done[id] = true
	p.apply(e, s)
	return tr
}
