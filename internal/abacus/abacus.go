// Package abacus implements the classic Abacus single-row legalization
// algorithm (Spindler et al., ISPD'08), the dynamic-programming/cluster
// method referenced in the FLEX paper's related work. Given cells assigned
// to one row segment, it computes positions minimizing the weighted sum of
// squared displacements subject to non-overlap and order preservation.
//
// In this repository Abacus serves as the row-solver inside the analytical
// (LEGALM-style) baseline: each ADMM iteration solves every row segment as
// an independent weighted single-row problem.
package abacus

import "slices"

// Item is one cell (or subcell) to place in a row segment.
type Item struct {
	ID     int     // caller's identifier, returned untouched
	GX     int     // desired (global-placement or ADMM reference) position
	W      int     // width in sites
	Weight float64 // quadratic weight (≥ 0; 0 treated as 1)
}

// cluster is the standard Abacus cluster: a maximal run of abutting cells
// whose optimal common placement is q/e.
type cluster struct {
	first, last int     // item index range [first, last]
	e           float64 // Σ weights
	q           float64 // Σ weight·(gx − offset-in-cluster)
	w           int     // total width
}

func (c *cluster) optimal() float64 {
	if c.e <= 0 {
		return 0
	}
	return c.q / c.e
}

// Solver places row segments while reusing its working memory across
// calls: the cluster stack, the cluster starts and the returned positions.
// The zero value is ready to use. Not safe for concurrent use.
type Solver struct {
	clusters []cluster
	starts   []int
	pos      []int
}

// Place positions the items (already ordered by desired position) inside
// [lo, hi), preserving their order. It returns the x positions and reports
// whether the items fit at all. The positions are valid until the next
// call.
func (s *Solver) Place(items []Item, lo, hi int) ([]int, bool) {
	n := len(items)
	if n == 0 {
		return nil, true
	}
	total := 0
	for i := range items {
		total += items[i].W
	}
	if total > hi-lo {
		return nil, false
	}

	clusters := s.clusters[:0]
	for i := 0; i < n; i++ {
		it := items[i]
		wgt := it.Weight
		if wgt <= 0 {
			wgt = 1
		}
		c := cluster{first: i, last: i, e: wgt, q: wgt * float64(it.GX), w: it.W}
		clusters = append(clusters, c)
		// Collapse while the new cluster overlaps its predecessor.
		for len(clusters) >= 2 {
			cur := &clusters[len(clusters)-1]
			prev := &clusters[len(clusters)-2]
			prevPos := clampF(prev.optimal(), float64(lo), float64(hi-prev.w-cur.w)+float64(prev.w))
			curPos := clampF(cur.optimal(), float64(lo), float64(hi-cur.w))
			if prevPos+float64(prev.w) <= curPos {
				break
			}
			// Merge cur into prev: items keep their in-cluster offsets.
			prev.q += cur.q - cur.e*float64(prev.w)
			prev.e += cur.e
			prev.w += cur.w
			prev.last = cur.last
			clusters = clusters[:len(clusters)-1]
		}
	}
	s.clusters = clusters

	// Materialize positions with forward/backward feasibility clamping.
	s.pos = slices.Grow(s.pos[:0], n)[:n]
	pos := s.pos
	// Forward pass: clamp each cluster right of its predecessor.
	s.starts = slices.Grow(s.starts[:0], len(clusters))[:len(clusters)]
	starts := s.starts
	minStart := lo
	for ci := range clusters {
		c := &clusters[ci]
		p := int(clampF(c.optimal()+0.5, float64(minStart), float64(hi-c.w)))
		if p < minStart {
			p = minStart
		}
		starts[ci] = p
		minStart = p + c.w
	}
	// Backward pass: pull clusters left if the tail overflowed.
	maxEnd := hi
	for ci := len(clusters) - 1; ci >= 0; ci-- {
		c := &clusters[ci]
		if starts[ci]+c.w > maxEnd {
			starts[ci] = maxEnd - c.w
		}
		if starts[ci] < lo {
			return nil, false
		}
		maxEnd = starts[ci]
	}
	for ci := range clusters {
		c := &clusters[ci]
		x := starts[ci]
		for i := c.first; i <= c.last; i++ {
			pos[i] = x
			x += items[i].W
		}
	}
	return pos, true
}

// Cost returns the weighted sum of squared displacements of a placement.
func Cost(items []Item, pos []int) float64 {
	var s float64
	for i := range items {
		w := items[i].Weight
		if w <= 0 {
			w = 1
		}
		d := float64(pos[i] - items[i].GX)
		s += w * d * d
	}
	return s
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
