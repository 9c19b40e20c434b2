package curve

import (
	"math/rand"
	"testing"
)

// benchHinges builds a deterministic hinge population shaped like the FOP
// emission: one V hinge for the target plus 1–2 push hinges per chained
// cell, positions clustered around the feasible interval.
func benchHinges(n int) ([]Breakpoint, int, int) {
	rng := rand.New(rand.NewSource(42))
	bps := make([]Breakpoint, 0, n)
	bps = append(bps, VHinge(500, 12))
	for len(bps) < n {
		cur := 400 + rng.Intn(200)
		g := cur + rng.Intn(41) - 20
		thresh := cur + rng.Intn(21) - 10
		if rng.Intn(2) == 0 {
			bps = AppendHingesForPush(bps, cur, g, thresh)
		} else {
			bps = AppendHingesForPushLeft(bps, cur, g, thresh)
		}
	}
	return bps[:n], 420, 580
}

func benchEval(b *testing.B, n int, eval func([]Breakpoint, int, int, *Stats) Result) {
	bps, lo, hi := benchHinges(n)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval(bps, lo, hi, &st)
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkEvalStreamed64(b *testing.B)  { benchEval(b, 64, EvalStreamed) }
func BenchmarkEvalStreamed256(b *testing.B) { benchEval(b, 256, EvalStreamed) }
func BenchmarkEvalOriginal64(b *testing.B)  { benchEval(b, 64, EvalOriginal) }
func BenchmarkEvalOriginal256(b *testing.B) { benchEval(b, 256, EvalOriginal) }

// The reused-Evaluator variants are what the FOP hot loop actually runs;
// after warm-up they are allocation-free.
func benchEvaluator(b *testing.B, n int) {
	bps, lo, hi := benchHinges(n)
	var e Evaluator
	var st Stats
	e.Streamed(bps, lo, hi, &st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Streamed(bps, lo, hi, &st); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkEvaluatorStreamed64(b *testing.B)  { benchEvaluator(b, 64) }
func BenchmarkEvaluatorStreamed256(b *testing.B) { benchEvaluator(b, 256) }

// fopHinges builds one insertion point's hinge list the way fop's
// evalPoint emits it: the target's V hinge, the left chain's push hinges
// in reverse sweep order, then the right chain's in sweep order, each
// delta-based (Base 0). Each chain packs nLeft or nRight cells of width
// 2–9 outward from the insertion point with gaps of up to two sites, each
// cell up to four sites from its global position. lo and hi bound the
// target's feasible positions, as the chains' segment ends would.
func fopHinges(rng *rand.Rand, nLeft, nRight int) (bps []Breakpoint, lo, hi int) {
	const at, tw = 500, 4 // insertion point and target width
	type cell struct{ x, g, thresh int }
	left := make([]cell, nLeft) // sweep order: descending x
	edge, off := at, 0
	for i := range left {
		w := 2 + rng.Intn(8)
		edge -= w + rng.Intn(3)
		off += w
		left[i] = cell{x: edge, g: edge + rng.Intn(9) - 4, thresh: edge + off}
	}
	right := make([]cell, nRight) // sweep order: ascending x
	edge, off = at, tw
	for i := range right {
		x := edge + rng.Intn(3)
		right[i] = cell{x: x, g: x + rng.Intn(9) - 4, thresh: x - off}
		w := 2 + rng.Intn(8)
		edge, off = x+w, off+w
	}
	bps = append(bps, VHinge(at+rng.Intn(9)-4, 3))
	for i := len(left) - 1; i >= 0; i-- {
		c, n := left[i], len(bps)
		bps = AppendHingesForPushLeft(bps, c.x, c.g, c.thresh)
		bps[n].Base = 0
	}
	for _, c := range right {
		n := len(bps)
		bps = AppendHingesForPush(bps, c.x, c.g, c.thresh)
		bps[n].Base = 0
	}
	return bps, at - 8*nLeft, at + 8*nRight
}

// BenchmarkEvaluatorStreamedFOP is the FOP hot loop's curve step: 12
// hinges in evalPoint's emission order on one reused Evaluator, short
// enough for sortAndMerge's insertion pass. The random lists of the
// benchmarks above are 5–21 times longer and take slices.Sort.
func BenchmarkEvaluatorStreamedFOP(b *testing.B) {
	bps, lo, hi := fopHinges(rand.New(rand.NewSource(42)), 4, 4)
	var e Evaluator
	var st Stats
	e.Streamed(bps, lo, hi, &st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Streamed(bps, lo, hi, &st); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}
