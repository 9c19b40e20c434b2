package region

import (
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
)

// Index is a uniform-grid spatial index over a layout, used by the
// legalizer flow to enumerate the cells intersecting a window without
// scanning the whole design. Cells are re-binned when they move.
type Index struct {
	l          *model.Layout
	binW, binH int
	nx, ny     int
	bins       [][]int   // bin -> cell IDs (unsorted)
	binned     []binSpan // cell ID -> the bins it is listed in
	present    []bool    // cell ID -> currently indexed
}

// binSpan is an inclusive range of bin columns and rows. Its first bin in
// row-major order, (bx0, by0), is the home bin of the cell binned under it.
type binSpan struct{ bx0, bx1, by0, by1 int }

// NewIndex builds an index over the layout with bins of the given size
// (sites × rows). Only cells for which include(id) is true are inserted;
// pass nil to index everything.
func NewIndex(l *model.Layout, binW, binH int, include func(int) bool) *Index {
	if binW <= 0 {
		binW = 32
	}
	if binH <= 0 {
		binH = 4
	}
	idx := &Index{
		l:    l,
		binW: binW, binH: binH,
		nx:      (l.NumSitesX + binW - 1) / binW,
		ny:      (l.NumRows + binH - 1) / binH,
		binned:  make([]binSpan, len(l.Cells)),
		present: make([]bool, len(l.Cells)),
	}
	if idx.nx < 1 {
		idx.nx = 1
	}
	if idx.ny < 1 {
		idx.ny = 1
	}
	idx.bins = make([][]int, idx.nx*idx.ny)
	for i := range l.Cells {
		if include == nil || include(i) {
			idx.Add(i)
		}
	}
	return idx
}

func (idx *Index) binRange(r geom.Rect) binSpan {
	return binSpan{
		bx0: geom.Max(0, r.X/idx.binW),
		bx1: geom.Min(idx.nx-1, (r.X+r.W-1)/idx.binW),
		by0: geom.Max(0, r.Y/idx.binH),
		by1: geom.Min(idx.ny-1, (r.Y+r.H-1)/idx.binH),
	}
}

// Add inserts cell id at its current position.
func (idx *Index) Add(id int) {
	if idx.present[id] {
		return
	}
	s := idx.binRange(idx.l.Cells[id].Rect())
	for by := s.by0; by <= s.by1; by++ {
		for bx := s.bx0; bx <= s.bx1; bx++ {
			b := by*idx.nx + bx
			idx.bins[b] = append(idx.bins[b], id)
		}
	}
	idx.binned[id] = s
	idx.present[id] = true
}

// Remove deletes cell id from the index.
func (idx *Index) Remove(id int) {
	if !idx.present[id] {
		return
	}
	s := idx.binned[id]
	for by := s.by0; by <= s.by1; by++ {
		for bx := s.bx0; bx <= s.bx1; bx++ {
			b := by*idx.nx + bx
			ids := idx.bins[b]
			for k, v := range ids {
				if v == id {
					ids[k] = ids[len(ids)-1]
					idx.bins[b] = ids[:len(ids)-1]
					break
				}
			}
		}
	}
	idx.present[id] = false
}

// Update re-bins cell id after its position changed. A cell that stays
// within the bins it is listed in keeps its entries.
func (idx *Index) Update(id int) {
	if !idx.present[id] {
		idx.Add(id)
		return
	}
	if idx.binned[id] == idx.binRange(idx.l.Cells[id].Rect()) {
		return
	}
	idx.Remove(id)
	idx.Add(id)
}

// Query appends to dst the IDs of indexed cells whose rect overlaps win,
// without duplicates, and returns the extended slice. Deduplication is
// allocation-free: a cell spanning several bins is accepted only at the
// first query bin covering it in row-major order, which also preserves
// first-encounter output order. That bin's column is the later of the
// query's first column and the cell's home column, and likewise its row;
// the home bin is stored when the cell is binned, so the test costs two
// comparisons and no division. No state is shared across calls, so
// concurrent Query on one index is safe as long as no writer runs.
func (idx *Index) Query(win geom.Rect, dst []int) []int {
	q := idx.binRange(win)
	for by := q.by0; by <= q.by1; by++ {
		for bx := q.bx0; bx <= q.bx1; bx++ {
			for _, id := range idx.bins[by*idx.nx+bx] {
				s := &idx.binned[id]
				if by != geom.Max(q.by0, s.by0) || bx != geom.Max(q.bx0, s.bx0) {
					continue // counted at its first covering bin already
				}
				if idx.l.Cells[id].Rect().Overlaps(win) {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}
