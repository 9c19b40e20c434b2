// Package curve implements the displacement-curve machinery of the MGL
// algorithm (Sec. 2.2.3 of the FLEX paper): piecewise-linear per-cell
// displacement curves represented as breakpoints, and the two equivalent
// evaluation pipelines the paper contrasts:
//
//   - EvalOriginal — the original five-operator sequence (sort bp, merge bp,
//     sum slopesR, sum slopesL, calculate value), each operator a separate
//     pass that materializes its intermediate results, exactly like the
//     RAM-coupled "Normal Pipeline" of Fig. 5.
//   - EvalStreamed — the restructured fwdtraverse/bwdtraverse organization
//     (fwdmerge + sum slopesR + calculate vR fused into one forward pass;
//     bwdmerge + sum slopesL + calculate vL and v fused into one backward
//     pass), the multi-granularity-pipeline-friendly dataflow of Fig. 5.
//
// Both produce bit-identical results; the FPGA cycle models in
// internal/fpga charge them differently.
//
// A Breakpoint (X, SL, SR, Base) denotes a single-hinge piecewise-linear
// function: f(x) = Base + SL·(x−X) for x < X and Base + SR·(x−X) for x ≥ X.
// Curves with two turning points (a cell that first catches up with its
// global position and then overshoots) are decomposed into two hinges; the
// summation pipeline is agnostic to the decomposition.
package curve

import (
	"math/bits"
	"slices"
)

// Breakpoint is one hinge of a piecewise-linear displacement curve.
type Breakpoint struct {
	X    int // target-cell position at which the slope changes
	SL   int // slope left of X
	SR   int // slope right of X
	Base int // curve value at X
}

// Eval returns the hinge's value at x.
func (b Breakpoint) Eval(x int) int {
	if x < b.X {
		return b.Base + b.SL*(x-b.X)
	}
	return b.Base + b.SR*(x-b.X)
}

// Result is the outcome of evaluating the summed displacement curve over a
// feasible interval [Lo, Hi].
type Result struct {
	BestX    int  // argmin of the summed curve, clamped to [Lo, Hi]
	BestVal  int  // minimum summed displacement
	Feasible bool // false when Lo > Hi
}

// Stats counts the work done by one evaluation, mirroring the operator
// granularity the FPGA cycle models charge for.
type Stats struct {
	RawBps    int // breakpoints entering the sorter
	MergedBps int // breakpoints after merging equal positions
	SortOps   int // comparison-ish units spent sorting
	Traversal int // items touched by the four traversal operators
}

// SumBase returns the sum of all hinge base values (the x-independent part
// of the summed curve).
func SumBase(bps []Breakpoint) int {
	s := 0
	for i := range bps {
		s += bps[i].Base
	}
	return s
}

// BruteForce evaluates the summed curve at x by direct summation. It is the
// test oracle for both pipelines.
func BruteForce(bps []Breakpoint, x int) int {
	v := 0
	for i := range bps {
		v += bps[i].Eval(x)
	}
	return v
}

// merged is one merged breakpoint: accumulated slopes of all hinges at the
// same x.
type merged struct {
	x      int
	sl, sr int
}

// Evaluator runs the two evaluation pipelines while reusing its scratch
// buffers across calls. The FOP inner loop evaluates one curve per
// insertion point; a per-call Evaluator keeps that loop allocation-free.
// The zero value is ready to use. Not safe for concurrent use.
type Evaluator struct {
	keys []int64 // packed sort keys: position above, hinge index below
	ms   []merged
	vR   []int // streamed forward partials
	sR   []int // original pipeline: cumulative right slopes
	sL   []int // original pipeline: cumulative left slopes
	vals []int // original pipeline: materialized values
}

// sortAndMerge sorts the hinges by position (with zero-slope sentinels at
// lo and hi so the constrained minimum is attained at a breakpoint) and
// merges equal positions into e.ms. Both pipelines share it; Original
// charges the passes separately on top. The sort runs over packed int64
// keys, position in the high bits and hinge index in the low bits, so it
// moves 8-byte words instead of 32-byte structs; site positions fit the
// remaining 40-odd bits by a wide margin. Equal-position hinges merge by
// commutative slope addition, so their relative order never reaches the
// traversals.
func (e *Evaluator) sortAndMerge(bps []Breakpoint, lo, hi int, st *Stats) []merged {
	n := len(bps)
	shift := bits.Len(uint(n + 1)) // index bits; n and n+1 are the sentinels
	mask := int64(1)<<shift - 1
	keys := e.keys[:0]
	for i := range bps {
		keys = append(keys, int64(bps[i].X)<<shift|int64(i))
	}
	keys = append(keys, int64(lo)<<shift|int64(n), int64(hi)<<shift|int64(n+1))
	e.keys = keys
	st.RawBps += len(keys)
	slices.Sort(keys)
	if m := len(keys); m > 1 {
		// n log n comparison units, the cost charged to "sort bp".
		logn := 0
		for v := m; v > 1; v >>= 1 {
			logn++
		}
		st.SortOps += m * logn
	}
	out := e.ms[:0]
	for _, k := range keys {
		x := int(k >> shift)
		var sl, sr int
		if i := int(k & mask); i < n {
			sl, sr = bps[i].SL, bps[i].SR
		}
		if len(out) > 0 && out[len(out)-1].x == x {
			out[len(out)-1].sl += sl
			out[len(out)-1].sr += sr
		} else {
			out = append(out, merged{x: x, sl: sl, sr: sr})
		}
	}
	e.ms = out
	st.MergedBps += len(out)
	return out
}

// grow resizes dst to n reusing capacity.
func grow(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// Original runs the paper's original five-operator FOP tail: sort bp →
// merge bp → sum slopesR → sum slopesL → calculate value, with each operator
// as a discrete pass over materialized intermediates. The minimum is taken
// over x in [lo, hi].
func (e *Evaluator) Original(bps []Breakpoint, lo, hi int, st *Stats) Result {
	if lo > hi {
		return Result{Feasible: false}
	}
	if st == nil {
		st = &Stats{}
	}
	base := SumBase(bps)
	ms := e.sortAndMerge(bps, lo, hi, st)
	n := len(ms)

	// sum slopesR: forward traversal, cumulative right slopes.
	e.sR = grow(e.sR, n)
	slopesR := e.sR
	acc := 0
	for i := 0; i < n; i++ {
		acc += ms[i].sr
		slopesR[i] = acc
		st.Traversal++
	}
	// sum slopesL: backward traversal, cumulative left slopes.
	e.sL = grow(e.sL, n)
	slopesL := e.sL
	acc = 0
	for i := n - 1; i >= 0; i-- {
		acc += ms[i].sl
		slopesL[i] = acc
		st.Traversal++
	}
	// calculate value: value at the first breakpoint, then walk segments
	// using the slope between adjacent merged breakpoints.
	e.vals = grow(e.vals, n)
	vals := e.vals
	v0 := 0
	for i := 1; i < n; i++ {
		// Hinges right of ms[0] contribute SL·(x0−xi) each; accumulate
		// directly (the software analogue of the slopesL-weighted sum).
		v0 += ms[i].sl * (ms[0].x - ms[i].x)
		st.Traversal++
	}
	vals[0] = v0
	for i := 1; i < n; i++ {
		seg := slopesR[i-1] + slopesL[i]
		vals[i] = vals[i-1] + seg*(ms[i].x-ms[i-1].x)
		st.Traversal++
	}
	res := Result{Feasible: true, BestVal: int(^uint(0) >> 1)}
	for i := 0; i < n; i++ {
		if ms[i].x < lo || ms[i].x > hi {
			continue
		}
		v := base + vals[i]
		if v < res.BestVal || (v == res.BestVal && ms[i].x < res.BestX) {
			res.BestVal = v
			res.BestX = ms[i].x
		}
	}
	return res
}

// Streamed runs the restructured dataflow of Fig. 5: a single forward
// pass (fwdmerge, sum slopesR, calculate vR) followed by a single backward
// pass (bwdmerge, sum slopesL, calculate vL and v). No intermediate arrays
// beyond the merged breakpoints and the forward partials are materialized.
func (e *Evaluator) Streamed(bps []Breakpoint, lo, hi int, st *Stats) Result {
	if lo > hi {
		return Result{Feasible: false}
	}
	if st == nil {
		st = &Stats{}
	}
	base := SumBase(bps)
	ms := e.sortAndMerge(bps, lo, hi, st)
	n := len(ms)

	// fwdtraverse: vR_i = Σ_{j≤i} SR_j·(x_i − x_j), computed incrementally.
	e.vR = grow(e.vR, n)
	vR := e.vR
	cumR := 0
	for i := 0; i < n; i++ {
		if i > 0 {
			vR[i] = vR[i-1] + cumR*(ms[i].x-ms[i-1].x)
		}
		cumR += ms[i].sr
		st.Traversal++
	}
	// bwdtraverse: vL_i = Σ_{j≥i} SL_j·(x_i − x_j) incrementally, fused with
	// the final v_i = base + vR_i + vL_i minimum selection.
	res := Result{Feasible: true, BestVal: int(^uint(0) >> 1)}
	cumL := 0
	vL := 0
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			vL += cumL * (ms[i].x - ms[i+1].x)
		}
		cumL += ms[i].sl
		st.Traversal++
		if ms[i].x < lo || ms[i].x > hi {
			continue
		}
		v := base + vR[i] + vL
		if v < res.BestVal || (v == res.BestVal && ms[i].x <= res.BestX) {
			res.BestVal = v
			res.BestX = ms[i].x
		}
	}
	return res
}

// EvalOriginal is Original on a throwaway Evaluator, for callers outside
// the FOP hot loop.
func EvalOriginal(bps []Breakpoint, lo, hi int, st *Stats) Result {
	var e Evaluator
	return e.Original(bps, lo, hi, st)
}

// EvalStreamed is Streamed on a throwaway Evaluator.
func EvalStreamed(bps []Breakpoint, lo, hi int, st *Stats) Result {
	var e Evaluator
	return e.Streamed(bps, lo, hi, st)
}

// HingesForPush returns the 1–2 hinge decomposition for a cell that a
// rightward-moving target pushes right. cur is the cell's current position,
// g its global-placement position, and thresh the target position at which
// the push engages (newpos(x) = max(cur, x + (cur − thresh))).
//
// The mirrored left-push case is obtained by negating coordinates; see
// HingesForPushLeft.
func HingesForPush(cur, g, thresh int) []Breakpoint {
	return AppendHingesForPush(nil, cur, g, thresh)
}

// AppendHingesForPush appends the push-right decomposition to dst and
// returns the extended slice, for hot loops that reuse a hinge buffer.
func AppendHingesForPush(dst []Breakpoint, cur, g, thresh int) []Breakpoint {
	if cur >= g {
		// Monotone hinge: flat at cur−g, then slope +1.
		return append(dst, Breakpoint{X: thresh, SL: 0, SR: 1, Base: cur - g})
	}
	// Flat at g−cur, then slope −1 down to 0 at x = thresh+(g−cur), then +1.
	return append(dst,
		Breakpoint{X: thresh, SL: 0, SR: -1, Base: g - cur},
		Breakpoint{X: thresh + (g - cur), SL: 0, SR: 2, Base: 0},
	)
}

// HingesForPushLeft returns the hinge decomposition for a cell pushed left:
// newpos(x) = min(cur, x − (thresh − cur)) engages for x < thresh.
func HingesForPushLeft(cur, g, thresh int) []Breakpoint {
	return AppendHingesForPushLeft(nil, cur, g, thresh)
}

// AppendHingesForPushLeft appends the push-left decomposition to dst.
func AppendHingesForPushLeft(dst []Breakpoint, cur, g, thresh int) []Breakpoint {
	if cur <= g {
		return append(dst, Breakpoint{X: thresh, SL: -1, SR: 0, Base: g - cur})
	}
	return append(dst,
		Breakpoint{X: thresh, SL: 1, SR: 0, Base: cur - g},
		Breakpoint{X: thresh - (cur - g), SL: -2, SR: 0, Base: 0},
	)
}

// VHinge returns the target cell's own displacement curve: a V centred on
// its preferred position with an x-independent base cost (the vertical
// displacement term).
func VHinge(preferred, base int) Breakpoint {
	return Breakpoint{X: preferred, SL: -1, SR: 1, Base: base}
}
