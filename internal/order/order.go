// Package order implements target-cell processing orderings (Sec. 3.1.2 of
// the FLEX paper). The order in which a heuristic legalizer places cells
// strongly affects quality: the baseline orders by cell size only, while
// FLEX refines the tail of a sliding window by localRegion density so that
// hard, high-density neighbourhoods are handled before they get crowded.
package order

import (
	"cmp"
	"slices"

	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/region"
)

// Scheduler yields target cells in processing order. Implementations are
// stateful: Next pops the next target.
type Scheduler interface {
	// Next returns the next target cell ID, or ok=false when exhausted.
	Next() (id int, ok bool)
	// Peek returns the upcoming target without consuming it (the paper's
	// C_next, used for ping-pong preloading), or ok=false when exhausted.
	Peek() (id int, ok bool)
	// Remaining reports how many targets are left.
	Remaining() int
	// Committed reports that a target was placed and that every cell the
	// placement moved, the target included, lies inside win both before
	// and after the move.
	Committed(win geom.Rect)
}

// bySizeDesc sorts cell IDs by descending area, breaking ties by descending
// height then ascending ID, matching the "larger cells first" heuristic.
func bySizeDesc(l *model.Layout, ids []int) {
	slices.SortStableFunc(ids, func(a, b int) int {
		ca, cb := &l.Cells[a], &l.Cells[b]
		if ca.Area() != cb.Area() {
			return cmp.Compare(cb.Area(), ca.Area())
		}
		if ca.H != cb.H {
			return cmp.Compare(cb.H, ca.H)
		}
		return cmp.Compare(a, b)
	})
}

// SizeOrder is the static size-descending ordering used by the MGL and
// DATE'22 baselines.
type SizeOrder struct {
	queue []int
}

// NewSizeOrder builds a size-descending scheduler over the layout's movable
// cells.
func NewSizeOrder(l *model.Layout) *SizeOrder {
	ids := l.MovableIDs()
	bySizeDesc(l, ids)
	return &SizeOrder{queue: ids}
}

// Next implements Scheduler.
func (s *SizeOrder) Next() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	return id, true
}

// Peek implements Scheduler.
func (s *SizeOrder) Peek() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0], true
}

// Remaining implements Scheduler.
func (s *SizeOrder) Remaining() int { return len(s.queue) }

// Committed implements Scheduler; a static order ignores placements.
func (s *SizeOrder) Committed(geom.Rect) {}

// Estimator estimates the current localRegion density around a cell and
// names the area the estimate reads: an estimate stays exact until a cell
// inside that area moves or is placed.
type Estimator interface {
	Estimate(id int) float64
	Window(id int) geom.Rect
}

// SlidingWindow is the FLEX ordering: an initial size-descending sequence
// refined on the fly. The head of the window (C_cur) is processed next and
// the second element (C_next) stays fixed so its region can be preloaded,
// while the remaining window entries are re-sorted by current localRegion
// density, highest first. Each entry's estimate is cached until a
// committed placement touches its estimate window.
type SlidingWindow struct {
	queue   []int
	w       int
	density Estimator
	dens    []float64 // per-pop density scratch, parallel to the window tail
	cache   []float64 // per cell ID: the last estimate
	fresh   []bool    // per cell ID: cache still equals a fresh estimate
}

// NewSlidingWindow builds the FLEX scheduler. w is the window length
// (w >= 3 for the reordering to have any effect); density estimates the
// current localRegion density around a cell (nil disables reordering).
func NewSlidingWindow(l *model.Layout, w int, density Estimator) *SlidingWindow {
	ids := l.MovableIDs()
	bySizeDesc(l, ids)
	if w < 1 {
		w = 1
	}
	return &SlidingWindow{
		queue: ids, w: w, density: density,
		cache: make([]float64, len(l.Cells)),
		fresh: make([]bool, len(l.Cells)),
	}
}

// Next implements Scheduler: pops C_cur, then re-sorts positions
// [2, w) of the remaining queue (everything in the window except the fixed
// C_next) by density, descending.
func (s *SlidingWindow) Next() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	if s.density != nil && len(s.queue) > 2 {
		hi := geom.Min(s.w-1, len(s.queue))
		if hi > 2 {
			seg := s.queue[1:hi]
			dens := s.dens[:0]
			for _, v := range seg {
				dens = append(dens, s.estimate(v))
			}
			s.dens = dens
			// Stable insertion sort, density descending: same order as a
			// stable sort over a density map, without per-pop allocations.
			for i := 1; i < len(seg); i++ {
				for j := i; j > 0 && dens[j] > dens[j-1]; j-- {
					seg[j], seg[j-1] = seg[j-1], seg[j]
					dens[j], dens[j-1] = dens[j-1], dens[j]
				}
			}
		}
	}
	return id, true
}

// estimate returns id's density, from the cache when it is still exact.
func (s *SlidingWindow) estimate(id int) float64 {
	if !s.fresh[id] {
		s.cache[id] = s.density.Estimate(id)
		s.fresh[id] = true
	}
	return s.cache[id]
}

// Committed implements Scheduler: it drops the cached estimate of every
// window entry whose estimate window overlaps win. Queue entries past the
// sliding window hold no estimate: an entry is estimated only inside the
// sliding window and leaves it only by being popped.
func (s *SlidingWindow) Committed(win geom.Rect) {
	if s.density == nil {
		return
	}
	for _, id := range s.queue[:geom.Min(s.w-1, len(s.queue))] {
		if s.fresh[id] && s.density.Window(id).Overlaps(win) {
			s.fresh[id] = false
		}
	}
}

// Cached reports the estimate the window holds for id, if it holds one:
// the value the next reorder uses should id be in its tail.
func (s *SlidingWindow) Cached(id int) (float64, bool) {
	return s.cache[id], s.fresh[id]
}

// Peek implements Scheduler.
func (s *SlidingWindow) Peek() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0], true
}

// Remaining implements Scheduler.
func (s *SlidingWindow) Remaining() int { return len(s.queue) }

// DensityEstimator estimates localRegion density from the spatial index:
// the occupied area of indexed cells in a winW×winH window centred on the
// cell's global position, over the window area.
type DensityEstimator struct {
	l          *model.Layout
	idx        *region.Index
	winW, winH int
	buf        []int // reused across estimates; estimator calls are serial
}

// NewDensityEstimator returns an estimator over l's cells in idx.
func NewDensityEstimator(l *model.Layout, idx *region.Index, winW, winH int) *DensityEstimator {
	return &DensityEstimator{l: l, idx: idx, winW: winW, winH: winH}
}

// Window returns the die-clipped window id's estimate reads.
func (d *DensityEstimator) Window(id int) geom.Rect {
	c := &d.l.Cells[id]
	return geom.NewRect(c.GX+c.W/2-d.winW/2, c.GY+c.H/2-d.winH/2, d.winW, d.winH).Intersect(d.l.Die())
}

// Estimate returns the current density estimate around id.
func (d *DensityEstimator) Estimate(id int) float64 {
	win := d.Window(id)
	if win.Empty() {
		return 1
	}
	used := d.l.Cells[id].Area()
	d.buf = d.idx.Query(win, d.buf[:0])
	for _, other := range d.buf {
		if other == id {
			continue
		}
		used += d.l.Cells[other].Rect().Intersect(win).Area()
	}
	return float64(used) / float64(win.Area())
}
