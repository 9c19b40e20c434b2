package mgl

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/order"
)

func testLayout(t *testing.T, n int, density float64, seed int64) *model.Layout {
	t.Helper()
	l, err := gen.Small(n, density, seed).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSequentialLegalizesSmallDesign(t *testing.T) {
	l := testLayout(t, 300, 0.55, 101)
	res := Legalize(l, Config{})
	if !res.Legal {
		t.Fatalf("not legal: failed=%d violations=%v", res.Stats.Failed, res.Violations)
	}
	if res.Stats.Placed != int64(len(l.MovableIDs())) {
		t.Fatalf("placed %d of %d", res.Stats.Placed, len(l.MovableIDs()))
	}
	if res.Metrics.AveDis <= 0 || res.Metrics.AveDis > 5 {
		t.Fatalf("AveDis %v out of plausible range", res.Metrics.AveDis)
	}
	// The input layout must not have been mutated.
	if l.OverlapArea() == 0 {
		t.Fatal("input layout was mutated")
	}
}

func TestSequentialHighDensity(t *testing.T) {
	l := testLayout(t, 250, 0.85, 102)
	res := Legalize(l, Config{})
	if !res.Legal {
		t.Fatalf("not legal at 85%% density: failed=%d violations=%v", res.Stats.Failed, res.Violations)
	}
}

func TestDeterminism(t *testing.T) {
	l := testLayout(t, 200, 0.6, 103)
	a := Legalize(l, Config{})
	b := Legalize(l, Config{})
	for i := range a.Layout.Cells {
		if a.Layout.Cells[i].X != b.Layout.Cells[i].X || a.Layout.Cells[i].Y != b.Layout.Cells[i].Y {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ between runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestStreamedMatchesOriginalPipeline(t *testing.T) {
	l := testLayout(t, 200, 0.6, 104)
	a := Legalize(l, Config{Streamed: false})
	b := Legalize(l, Config{Streamed: true})
	for i := range a.Layout.Cells {
		if a.Layout.Cells[i].X != b.Layout.Cells[i].X || a.Layout.Cells[i].Y != b.Layout.Cells[i].Y {
			t.Fatalf("cell %d differs between curve pipelines", i)
		}
	}
}

func TestCommitOriginalMatchesSACS(t *testing.T) {
	l := testLayout(t, 150, 0.6, 105)
	a := Legalize(l, Config{CommitOriginal: false})
	b := Legalize(l, Config{CommitOriginal: true})
	for i := range a.Layout.Cells {
		if a.Layout.Cells[i].X != b.Layout.Cells[i].X || a.Layout.Cells[i].Y != b.Layout.Cells[i].Y {
			t.Fatalf("cell %d differs between commit algorithms", i)
		}
	}
	// The original algorithm must have spent at least as many passes.
	if b.Stats.Commit.Passes < a.Stats.Commit.Passes {
		t.Fatalf("original commit passes %d < SACS passes %d",
			b.Stats.Commit.Passes, a.Stats.Commit.Passes)
	}
}

func TestParallelEngineLegalizes(t *testing.T) {
	l := testLayout(t, 300, 0.55, 106)
	for _, threads := range []int{2, 4} {
		res := Legalize(l, Config{Threads: threads})
		if !res.Legal {
			t.Fatalf("threads=%d: not legal: %v", threads, res.Violations)
		}
		if res.Stats.Batches == 0 {
			t.Fatalf("threads=%d: no batches recorded", threads)
		}
		if res.Stats.WorkCritical <= 0 || res.Stats.WorkCritical > res.Stats.WorkParallel {
			t.Fatalf("threads=%d: critical path accounting broken: crit=%v total=%v",
				threads, res.Stats.WorkCritical, res.Stats.WorkParallel)
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	l := testLayout(t, 200, 0.6, 107)
	a := Legalize(l, Config{Threads: 4})
	b := Legalize(l, Config{Threads: 4})
	for i := range a.Layout.Cells {
		if a.Layout.Cells[i].X != b.Layout.Cells[i].X || a.Layout.Cells[i].Y != b.Layout.Cells[i].Y {
			t.Fatalf("cell %d differs between parallel runs", i)
		}
	}
}

func TestSlidingWindowOrderingQuality(t *testing.T) {
	l := testLayout(t, 400, 0.75, 108)
	plain := Legalize(l, Config{})
	sw := Legalize(l, Config{SlidingWindow: 8})
	if !plain.Legal || !sw.Legal {
		t.Fatalf("legality: plain=%v sw=%v", plain.Legal, sw.Legal)
	}
	// The density-aware ordering should not be dramatically worse; the
	// paper reports ~1% average improvement. Allow noise on tiny designs.
	if sw.Metrics.AveDis > plain.Metrics.AveDis*1.25 {
		t.Fatalf("sliding window much worse: %v vs %v", sw.Metrics.AveDis, plain.Metrics.AveDis)
	}
}

func TestMeasureOriginalShiftInstrumentation(t *testing.T) {
	l := testLayout(t, 80, 0.6, 109)
	res := Legalize(l, Config{MeasureOriginalShift: true})
	if res.Stats.FOP.OriginalShift.Passes == 0 {
		t.Fatal("original shifting instrumentation produced no passes")
	}
	// Multi-pass structure: the original algorithm averages more than the
	// two sweeps per insertion point that the sort-ahead form uses.
	perPoint := float64(res.Stats.FOP.OriginalShift.Passes) / float64(res.Stats.FOP.InsertionPoints)
	if perPoint < 2.0 {
		t.Fatalf("original shifting passes per insertion point = %v, want >= 2", perPoint)
	}
}

func TestSnapRow(t *testing.T) {
	cases := []struct {
		gy, h   int
		p       model.PGParity
		numRows int
		want    int
	}{
		{5, 1, model.ParityAny, 10, 5},
		{5, 2, model.ParityEven, 10, 4},
		{-3, 1, model.ParityAny, 10, 0},
		{20, 2, model.ParityEven, 10, 8},
		{1, 2, model.ParityEven, 10, 0},
		{3, 3, model.ParityOdd, 10, 3},
	}
	for _, c := range cases {
		if got := snapRow(c.gy, c.h, c.p, c.numRows); got != c.want {
			t.Errorf("snapRow(%d,%d,%v,%d) = %d, want %d", c.gy, c.h, c.p, c.numRows, got, c.want)
		}
	}
}

func TestStatsBreakdownShiftDominates(t *testing.T) {
	// Fig. 2(g): cell shifting should dominate FOP work. Verify the op
	// counters reflect that on a realistic run.
	l := testLayout(t, 300, 0.7, 110)
	res := Legalize(l, Config{})
	w := Config{}.weights()
	shiftWork := w.ShiftWork(res.Stats.FOP.Shift)
	curveWork := w.CurveWork(res.Stats.FOP.Curve)
	frac := shiftWork / (shiftWork + curveWork)
	if frac < 0.5 {
		t.Fatalf("shift fraction of FOP work = %v, want > 0.5", frac)
	}
}

// TestDensityCacheMatchesFreshEstimates runs the sequential engine in the
// FLEX configuration and checks, before every pop, that each density the
// sliding window holds equals a fresh estimate over the current layout.
// TraceFn runs after each placement and nothing moves between it and the
// next pop, so it sees exactly the cache that pop will read.
func TestDensityCacheMatchesFreshEstimates(t *testing.T) {
	spec, _ := gen.ByName("des_perf_1")
	l, err := spec.Generate(1000 / float64(spec.NumCells))
	if err != nil {
		t.Fatal(err)
	}
	var e *engine
	checked := 0
	cfg := Config{Streamed: true, SlidingWindow: 8, TraceFn: func(TargetTrace) {
		sw := e.sched.(*order.SlidingWindow)
		fresh := order.NewDensityEstimator(e.l, e.idx, 96, 12)
		for id := range e.l.Cells {
			if e.placed[id] {
				continue
			}
			if v, ok := sw.Cached(id); ok {
				if want := fresh.Estimate(id); v != want {
					t.Fatalf("cell %d: cached density %v, fresh estimate %v", id, v, want)
				}
				checked++
			}
		}
	}}
	e = newEngine(l, cfg)
	e.runSequential()
	if res := e.finish(); !res.Legal {
		t.Fatalf("not legal: failed=%d", res.Stats.Failed)
	}
	if pops := len(l.MovableIDs()); checked < 2*pops {
		t.Fatalf("only %d cached densities checked over %d pops", checked, pops)
	}
}
