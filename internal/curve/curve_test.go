package curve

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/flex-eda/flex/internal/geom"
)

func randomHinges(r *rand.Rand, n int) []Breakpoint {
	bps := make([]Breakpoint, n)
	for i := range bps {
		// Realistic slope range: decomposed push hinges use slopes in
		// [-2, 2]; bases are non-negative displacements.
		bps[i] = Breakpoint{
			X:    r.Intn(200) - 100,
			SL:   r.Intn(5) - 2,
			SR:   r.Intn(5) - 2,
			Base: r.Intn(50),
		}
	}
	return bps
}

// bruteMin scans every integer in [lo, hi] for the true minimum.
func bruteMin(bps []Breakpoint, lo, hi int) (int, int) {
	bestX, bestV := lo, BruteForce(bps, lo)
	for x := lo + 1; x <= hi; x++ {
		if v := BruteForce(bps, x); v < bestV {
			bestV, bestX = v, x
		}
	}
	return bestX, bestV
}

func TestEvalPipelinesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(12)
		bps := randomHinges(r, n)
		lo := r.Intn(100) - 120
		hi := lo + r.Intn(200)
		var st Stats
		orig := EvalOriginal(bps, lo, hi, &st)
		strm := EvalStreamed(bps, lo, hi, nil)
		if !orig.Feasible || !strm.Feasible {
			t.Fatalf("iter %d: unexpected infeasible", iter)
		}
		wantX, wantV := bruteMin(bps, lo, hi)
		if orig.BestVal != wantV {
			t.Fatalf("iter %d: EvalOriginal val %d, brute force %d", iter, orig.BestVal, wantV)
		}
		if strm.BestVal != wantV {
			t.Fatalf("iter %d: EvalStreamed val %d, brute force %d", iter, strm.BestVal, wantV)
		}
		// Argmin may differ among equal-value positions only.
		if BruteForce(bps, orig.BestX) != wantV || BruteForce(bps, strm.BestX) != wantV {
			t.Fatalf("iter %d: argmin not optimal", iter)
		}
		if orig.BestX < lo || orig.BestX > hi || strm.BestX < lo || strm.BestX > hi {
			t.Fatalf("iter %d: argmin out of bounds", iter)
		}
		_ = wantX
	}
}

func TestEvalPipelinesAgreeExactly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		bps := randomHinges(r, 1+r.Intn(20))
		lo := r.Intn(300) - 150
		hi := lo + r.Intn(250)
		a := EvalOriginal(bps, lo, hi, nil)
		b := EvalStreamed(bps, lo, hi, nil)
		if a != b {
			t.Fatalf("iter %d: original %+v != streamed %+v", iter, a, b)
		}
	}
}

func TestEvalInfeasibleInterval(t *testing.T) {
	bps := []Breakpoint{VHinge(5, 0)}
	if r := EvalOriginal(bps, 10, 9, nil); r.Feasible {
		t.Fatal("EvalOriginal accepted lo > hi")
	}
	if r := EvalStreamed(bps, 10, 9, nil); r.Feasible {
		t.Fatal("EvalStreamed accepted lo > hi")
	}
}

func TestEvalSingleV(t *testing.T) {
	bps := []Breakpoint{VHinge(7, 3)}
	r := EvalStreamed(bps, 0, 20, nil)
	if r.BestX != 7 || r.BestVal != 3 {
		t.Fatalf("got (%d, %d), want (7, 3)", r.BestX, r.BestVal)
	}
	// Clamped on the right: minimum at interval edge.
	r = EvalStreamed(bps, 0, 4, nil)
	if r.BestX != 4 || r.BestVal != 3+3 {
		t.Fatalf("clamped: got (%d, %d), want (4, 6)", r.BestX, r.BestVal)
	}
	// Clamped on the left.
	r = EvalStreamed(bps, 9, 20, nil)
	if r.BestX != 9 || r.BestVal != 3+2 {
		t.Fatalf("clamped: got (%d, %d), want (9, 5)", r.BestX, r.BestVal)
	}
}

// pushOracle evaluates |max(cur, x+off) − g| directly.
func pushOracle(cur, g, thresh, x int) int {
	off := cur - thresh
	np := cur
	if x+off > np {
		np = x + off
	}
	return geom.Abs(np - g)
}

func pushLeftOracle(cur, g, thresh, x int) int {
	off := thresh - cur
	np := cur
	if x-off < np {
		np = x - off
	}
	return geom.Abs(np - g)
}

func TestHingesForPushMatchesOracle(t *testing.T) {
	f := func(cur, g, thresh int8, dx uint8) bool {
		x := int(thresh) + int(dx)%100 - 50
		bps := HingesForPush(int(cur), int(g), int(thresh))
		return BruteForce(bps, x) == pushOracle(int(cur), int(g), int(thresh), x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHingesForPushLeftMatchesOracle(t *testing.T) {
	f := func(cur, g, thresh int8, dx uint8) bool {
		x := int(thresh) - int(dx)%100 + 50
		bps := HingesForPushLeft(int(cur), int(g), int(thresh))
		return BruteForce(bps, x) == pushLeftOracle(int(cur), int(g), int(thresh), x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHingeEvalAndVHinge(t *testing.T) {
	b := Breakpoint{X: 10, SL: -1, SR: 2, Base: 5}
	if b.Eval(10) != 5 || b.Eval(7) != 8 || b.Eval(12) != 9 {
		t.Fatal("Breakpoint.Eval wrong")
	}
	v := VHinge(3, 4)
	if v.Eval(3) != 4 || v.Eval(0) != 7 || v.Eval(8) != 9 {
		t.Fatal("VHinge wrong")
	}
}

func TestStatsAccounting(t *testing.T) {
	bps := []Breakpoint{VHinge(1, 0), VHinge(1, 0), VHinge(5, 0)}
	var st Stats
	EvalOriginal(bps, 0, 10, &st)
	// 3 hinges + 2 sentinels = 5 raw; positions {0,1,5,10} = 4 merged.
	if st.RawBps != 5 {
		t.Fatalf("RawBps = %d, want 5", st.RawBps)
	}
	if st.MergedBps != 4 {
		t.Fatalf("MergedBps = %d, want 4", st.MergedBps)
	}
	if st.SortOps == 0 || st.Traversal == 0 {
		t.Fatal("sort/traversal work not counted")
	}
}

func TestSumBase(t *testing.T) {
	bps := []Breakpoint{{Base: 3}, {Base: 4}, {Base: -2}}
	if SumBase(bps) != 5 {
		t.Fatal("SumBase wrong")
	}
}

// TestSortAndMergeMatchesReference checks the packed-key sort against a
// map-based merge: negative and duplicate positions, hinge counts that
// change the index width, and one Evaluator reused across every call.
func TestSortAndMergeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var e Evaluator
	for iter := 0; iter < 300; iter++ {
		n := r.Intn(12)
		if iter%10 == 0 {
			n = 1000 + r.Intn(3000)
		}
		bps := make([]Breakpoint, n)
		for i := range bps {
			bps[i] = Breakpoint{X: r.Intn(61) - 30 - 1<<30*(r.Intn(3)-1), SL: r.Intn(5) - 2, SR: r.Intn(5) - 2}
		}
		lo := r.Intn(41) - 20
		hi := lo + r.Intn(30)
		sums := map[int][2]int{lo: {}, hi: {}}
		for _, b := range bps {
			s := sums[b.X]
			sums[b.X] = [2]int{s[0] + b.SL, s[1] + b.SR}
		}
		var st Stats
		ms := e.sortAndMerge(bps, lo, hi, &st)
		if len(ms) != len(sums) || st.MergedBps != len(sums) || st.RawBps != n+2 {
			t.Fatalf("iter %d: %d merged (stats %+v), want %d of %d raw", iter, len(ms), st, len(sums), n+2)
		}
		for i, m := range ms {
			if i > 0 && ms[i-1].x >= m.x {
				t.Fatalf("iter %d: merged positions not strictly ascending at %d", iter, i)
			}
			if s := sums[m.x]; m.sl != s[0] || m.sr != s[1] {
				t.Fatalf("iter %d: x=%d slopes (%d,%d), want (%d,%d)", iter, m.x, m.sl, m.sr, s[0], s[1])
			}
		}
	}
}
