package model

import (
	"sort"

	"github.com/flex-eda/flex/internal/geom"
)

// The legality check and overlap area as they were before the one-pass
// proof and the shared row builder, kept as the differential reference:
// FuzzCheckMatchesReference and TestCheckMatchesReferenceOnPerturbedLayouts
// hold Check to refCheck's violations, order included, and OverlapArea to
// refOverlapArea's sum.

// refCheck is the former Check: per-cell rules, then a per-row sweep that
// sorts each row with sort.Slice and scans back over every earlier span.
func refCheck(l *Layout, max int) []Violation {
	var out []Violation
	add := func(v Violation) bool {
		out = append(out, v)
		return max > 0 && len(out) >= max
	}
	die := l.Die()
	for i := range l.Cells {
		c := &l.Cells[i]
		if !die.Contains(c.Rect()) {
			if add(Violation{Kind: "out-of-die", CellA: i, CellB: -1}) {
				return out
			}
		}
		if !c.Parity.AllowsRow(c.Y) {
			if add(Violation{Kind: "pg-parity", CellA: i, CellB: -1}) {
				return out
			}
		}
		if c.Fixed && (c.X != c.GX || c.Y != c.GY) {
			if add(Violation{Kind: "fixed-moved", CellA: i, CellB: -1}) {
				return out
			}
		}
	}
	type span struct {
		lo, hi, id int
	}
	rows := make([][]span, l.NumRows+1)
	for i := range l.Cells {
		c := &l.Cells[i]
		for y := c.Y; y < c.Y+c.H; y++ {
			if y < 0 || y >= len(rows) {
				continue // out-of-die already reported
			}
			rows[y] = append(rows[y], span{lo: c.X, hi: c.X + c.W, id: i})
		}
	}
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	for _, spans := range rows {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			// Check against preceding spans that may still reach this one.
			for j := i - 1; j >= 0; j-- {
				if spans[j].hi <= spans[i].lo {
					// Sorted by lo, but an earlier wide span can still
					// overlap; keep scanning back while any could reach.
					continue
				}
				a, b := spans[j].id, spans[i].id
				if a > b {
					a, b = b, a
				}
				p := pair{a, b}
				if !seen[p] {
					seen[p] = true
					if add(Violation{Kind: "overlap", CellA: a, CellB: b}) {
						return out
					}
				}
			}
		}
	}
	return out
}

// refOverlapArea is the former OverlapArea. Its differences wrap in int
// arithmetic for coordinates near the int limits, where no area means
// anything; the layouts it is compared on stay far from them.
func refOverlapArea(l *Layout) int {
	type span struct {
		lo, hi, id int
	}
	total := 0
	rows := make([][]span, l.NumRows+1)
	for i := range l.Cells {
		c := &l.Cells[i]
		for y := c.Y; y < c.Y+c.H; y++ {
			if y < 0 || y >= len(rows) {
				continue
			}
			rows[y] = append(rows[y], span{lo: c.X, hi: c.X + c.W, id: i})
		}
	}
	for _, spans := range rows {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			for j := i - 1; j >= 0; j-- {
				ov := geom.Min(spans[j].hi, spans[i].hi) - spans[i].lo
				if ov > 0 {
					total += ov
				}
			}
		}
	}
	return total
}
