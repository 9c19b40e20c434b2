package mgl

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
)

// TestImpossibleDesignFailsGracefully injects an unsatisfiable workload: a
// die too small for its cells. The engine must terminate, report failures,
// and not panic.
func TestImpossibleDesignFailsGracefully(t *testing.T) {
	l := &model.Layout{Name: "overfull", NumSitesX: 20, NumRows: 4, RowHeight: 8}
	for i := 0; i < 12; i++ {
		l.Cells = append(l.Cells, model.Cell{
			ID: i, Name: "c", X: 0, Y: 0, GX: 0, GY: 0, W: 10, H: 2,
			Parity: model.ParityEven,
		})
	}
	res := Legalize(l, Config{})
	if res.Legal {
		t.Fatal("overfull design reported legal")
	}
	if res.Stats.Failed == 0 {
		t.Fatal("no failures recorded for an unsatisfiable design")
	}
}

func TestEmptyAndSingleCellLayouts(t *testing.T) {
	empty := &model.Layout{Name: "empty", NumSitesX: 10, NumRows: 4, RowHeight: 8}
	res := Legalize(empty, Config{})
	if !res.Legal || res.Stats.Placed != 0 {
		t.Fatalf("empty layout mishandled: %+v", res.Stats)
	}

	single := &model.Layout{Name: "one", NumSitesX: 40, NumRows: 4, RowHeight: 8}
	single.Cells = append(single.Cells, model.Cell{
		ID: 0, Name: "a", X: 7, Y: 1, GX: 7, GY: 1, W: 3, H: 1, Parity: model.ParityAny,
	})
	res = Legalize(single, Config{})
	if !res.Legal || res.Stats.Placed != 1 {
		t.Fatalf("single-cell layout mishandled: %+v", res.Stats)
	}
	if res.Metrics.TotalDis != 0 {
		t.Fatalf("lone cell moved: %v", res.Metrics)
	}
}

// TestFixedOnlyLayout: nothing movable, just blockages.
func TestFixedOnlyLayout(t *testing.T) {
	l := &model.Layout{Name: "fixed", NumSitesX: 20, NumRows: 4, RowHeight: 8}
	l.Cells = append(l.Cells, model.Cell{
		ID: 0, Name: "blk", X: 5, Y: 0, GX: 5, GY: 0, W: 4, H: 4, Fixed: true,
	})
	res := Legalize(l, Config{})
	if !res.Legal {
		t.Fatalf("fixed-only layout illegal: %v", res.Violations)
	}
}

// TestTallCellsAgainstLowDie: cells as tall as the die still legalize.
func TestTallCellsAgainstLowDie(t *testing.T) {
	l := &model.Layout{Name: "tall", NumSitesX: 120, NumRows: 4, RowHeight: 8}
	for i := 0; i < 12; i++ {
		l.Cells = append(l.Cells, model.Cell{
			ID: i, Name: "t", X: i * 6, Y: 0, GX: i * 6, GY: 0, W: 5, H: 4,
			Parity: model.ParityEven,
		})
	}
	// Overlap them pairwise by nudging global positions together.
	for i := range l.Cells {
		l.Cells[i].GX = (i / 2) * 11
		l.Cells[i].X = l.Cells[i].GX
	}
	res := Legalize(l, Config{})
	if !res.Legal {
		t.Fatalf("tall-cell layout illegal: %v (failed=%d)", res.Violations, res.Stats.Failed)
	}
}

// TestThreadsOneEqualsSequential: the parallel engine with one worker must
// behave like a batched sequential run and stay legal.
func TestThreadsOneBoundary(t *testing.T) {
	l, err := gen.Small(150, 0.5, 111).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	seq := Legalize(l, Config{Threads: 1})
	if !seq.Legal {
		t.Fatal("sequential run illegal")
	}
}

// TestMetricsConsistency: the result metrics must match an independent
// re-measurement of the returned layout.
func TestMetricsConsistency(t *testing.T) {
	l, err := gen.Small(200, 0.55, 113).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	res := Legalize(l, Config{})
	again := model.Measure(res.Layout)
	if again.AveDis != res.Metrics.AveDis || again.TotalDis != res.Metrics.TotalDis {
		t.Fatalf("metrics drift: %+v vs %+v", res.Metrics, again)
	}
}
