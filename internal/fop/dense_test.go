package fop

import (
	"math/rand"
	"testing"

	"github.com/flex-eda/flex/internal/curve"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
)

// denseBest is the oracle for Finder.Best: the same triple loop, but both
// offset sweeps visit every region cell at every insertion point, charging
// each visit as it goes.
func denseBest(reg *region.Region, t Target, opt Options, st *Stats) Candidate {
	best := Candidate{Feasible: false}
	win := reg.Window
	var f Finder
	order := reg.XOrder(nil)
	st.Shift.SortedCells += len(order)
	if n := len(order); n > 1 {
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		st.Shift.SortOps += n * logn
	}
	f.rowOff = make([]int, len(reg.Segments))
	f.inLeft = make([]bool, len(reg.Cells))
	for y := win.Y; y+t.H <= win.Y+win.H; y++ {
		if t.ParityOK != nil && !t.ParityOK(y) {
			continue
		}
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
		for _, b2 := range f.slotBoundaries(reg, y, t.H) {
			st.InsertionPoints++
			c := denseEvalPoint(&f, reg, order, t, y, b2, lo0, hi0, vbase, opt, st)
			if c.Better(best) {
				best = c
			}
		}
	}
	return best
}

func denseEvalPoint(f *Finder, reg *region.Region, order []int, t Target, y, b2, lo0, hi0, vbase int, opt Options, st *Stats) Candidate {
	st.Shift.Passes += 2
	nSeg := len(reg.Segments)
	rowOff := f.rowOff
	for i := range rowOff {
		rowOff[i] = negInf
	}
	for row := y; row < y+t.H; row++ {
		if si := row - reg.Window.Y; si >= 0 && si < nSeg {
			rowOff[si] = 0
		}
	}
	lo, hi := lo0, hi0
	var left, right []chainEntry
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := &reg.Cells[ci]
		if c.Y < y+t.H && c.Y+c.H > y && 2*c.X+c.W > b2 {
			continue
		}
		o := negInf
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - reg.Window.Y
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
			si := row - reg.Window.Y
			if si >= 0 && si < nSeg {
				if o > rowOff[si] {
					rowOff[si] = o
				}
				if v := reg.Segments[si].Lo + o; v > lo {
					lo = v
				}
			}
		}
		left = append(left, chainEntry{ci, o})
		f.inLeft[ci] = true
	}
	for i := range rowOff {
		rowOff[i] = negInf
	}
	for row := y; row < y+t.H; row++ {
		if si := row - reg.Window.Y; si >= 0 && si < nSeg {
			rowOff[si] = t.W
		}
	}
	for k := 0; k < len(order); k++ {
		ci := order[k]
		c := &reg.Cells[ci]
		if (c.Y < y+t.H && c.Y+c.H > y && 2*c.X+c.W <= b2) || f.inLeft[ci] {
			continue
		}
		o := negInf
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - reg.Window.Y
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
			si := row - reg.Window.Y
			if si >= 0 && si < nSeg {
				if v := o + c.W; v > rowOff[si] {
					rowOff[si] = v
				}
				if v := reg.Segments[si].Hi - c.W - o; v < hi {
					hi = v
				}
			}
		}
		right = append(right, chainEntry{ci, o})
	}
	for _, e := range left {
		f.inLeft[e.ci] = false
	}
	if lo > hi {
		return Candidate{Feasible: false}
	}
	if opt.MeasureOriginalShift {
		f.measureOriginal(reg, t, y, b2, lo, hi, st)
	}
	bps := []curve.Breakpoint{curve.VHinge(t.GX, vbase)}
	for _, e := range left {
		c := &reg.Cells[e.ci]
		n := len(bps)
		bps = curve.AppendHingesForPushLeft(bps, c.X, c.GX, c.X+e.o)
		bps[n].Base = 0
	}
	for _, e := range right {
		c := &reg.Cells[e.ci]
		n := len(bps)
		bps = curve.AppendHingesForPush(bps, c.X, c.GX, c.X-e.o)
		bps[n].Base = 0
	}
	var res curve.Result
	if opt.Streamed {
		res = curve.EvalStreamed(bps, lo, hi, &st.Curve)
	} else {
		res = curve.EvalOriginal(bps, lo, hi, &st.Curve)
	}
	if !res.Feasible {
		return Candidate{Feasible: false}
	}
	return Candidate{X: res.BestX, Y: y, Boundary2: b2, Cost: res.BestVal, Feasible: true}
}

// randomRegion builds a localRegion with per-row segments (some rows
// blocked, some left empty), packed cells of height 1–4 whose rows bridge
// freely across any target's rows, and a window that does not start at
// row 0.
func randomRegion(rng *rand.Rand) *region.Region {
	win := geom.NewRect(rng.Intn(20), 1+rng.Intn(6), 24+rng.Intn(40), 4+rng.Intn(10))
	reg := &region.Region{Window: win, Segments: make([]region.Segment, win.H)}
	empty := make([]bool, win.H)
	for i := range reg.Segments {
		lo, hi := win.X+rng.Intn(5), win.X+win.W-rng.Intn(5)
		switch rng.Intn(10) {
		case 0: // blocked row
			hi = lo
		case 1:
			empty[i] = true
		}
		reg.Segments[i] = region.Segment{Row: win.Y + i, Lo: lo, Hi: hi}
	}
	cursor := make([]int, win.H)
	for i := range cursor {
		cursor[i] = reg.Segments[i].Lo
	}
	for k := 0; k < 8*win.H; k++ {
		h := []int{1, 1, 1, 2, 2, 3, 4}[rng.Intn(7)]
		if h > win.H {
			continue
		}
		si := rng.Intn(win.H - h + 1)
		w := 1 + rng.Intn(6)
		x := 0
		for r := si; r < si+h; r++ {
			x = geom.Max(x, cursor[r])
		}
		x += rng.Intn(3)
		fits := true
		for r := si; r < si+h; r++ {
			seg := &reg.Segments[r]
			if empty[r] || x < seg.Lo || x+w > seg.Hi {
				fits = false
			}
		}
		if !fits {
			continue
		}
		reg.Cells = append(reg.Cells, region.LocalCell{
			ID: len(reg.Cells), X: x, Y: win.Y + si, GX: x + rng.Intn(13) - 6, W: w, H: h,
		})
		for r := si; r < si+h; r++ {
			cursor[r] = x + w
		}
	}
	for li := range reg.Cells {
		c := &reg.Cells[li]
		for row := c.Y; row < c.Y+c.H; row++ {
			seg := reg.SegmentAt(row)
			seg.Cells = append(seg.Cells, li)
		}
	}
	reg.SortSegmentCells()
	return reg
}

// TestBestMatchesDenseSweep pins the sparse sweep to the dense oracle: the
// same Candidate and the same Stats, every field, on randomized regions.
// One Finder serves every case, as it serves every target of an engine.
func TestBestMatchesDenseSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	parities := []func(int) bool{nil, anyRow, func(y int) bool { return y%2 == 0 }, func(y int) bool { return y%2 == 1 }}
	var f Finder
	skipped, bridged := 0, 0
	for iter := 0; iter < 600; iter++ {
		reg := randomRegion(rng)
		if err := reg.Validate(); err != nil {
			t.Fatalf("iter %d: generator built a bad region: %v", iter, err)
		}
		win := reg.Window
		tg := Target{
			GX: win.X + rng.Intn(win.W), GY: win.Y + rng.Intn(win.H),
			W: 1 + rng.Intn(6), H: 1 + rng.Intn(4),
			ParityOK: parities[rng.Intn(len(parities))], RowHeight: 1 + rng.Intn(8),
		}
		opt := Options{Streamed: rng.Intn(2) == 0, MeasureOriginalShift: rng.Intn(8) == 0}
		var want, got Stats
		wc := denseBest(reg, tg, opt, &want)
		gc := f.Best(reg, tg, opt, &got)
		if gc != wc {
			t.Fatalf("iter %d: candidate %+v, dense %+v", iter, gc, wc)
		}
		if got != want {
			t.Fatalf("iter %d: stats\n got   %+v\n dense %+v", iter, got, want)
		}
		if f.skip.cells > 0 {
			skipped++
		}
		if f.spanHi-f.spanLo > tg.H {
			bridged++
		}
	}
	if skipped < 100 || bridged < 100 {
		t.Fatalf("weak coverage: %d cases skipped cells, %d reached past the target rows", skipped, bridged)
	}
}
