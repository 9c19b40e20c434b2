package mgl

import (
	"testing"

	"github.com/flex-eda/flex/internal/model"
)

func TestGPUEmptyLayout(t *testing.T) {
	l := &model.Layout{Name: "empty", NumSitesX: 10, NumRows: 4, RowHeight: 8}
	res := LegalizeGPU(l, GPUConfig{})
	if !res.Legal {
		t.Fatal("empty layout illegal")
	}
	if res.GPU.Rounds != 0 {
		t.Fatalf("rounds = %d on empty layout", res.GPU.Rounds)
	}
}

func TestGPUAllTough(t *testing.T) {
	// Every cell tall: everything lands on the CPU path.
	l := &model.Layout{Name: "tough", NumSitesX: 200, NumRows: 8, RowHeight: 8}
	for i := 0; i < 10; i++ {
		l.Cells = append(l.Cells, model.Cell{
			ID: i, Name: "t", X: i * 18, Y: 0, GX: i * 18, GY: 0, W: 6, H: 4,
			Parity: model.ParityEven,
		})
	}
	res := LegalizeGPU(l, GPUConfig{})
	if !res.Legal {
		t.Fatalf("all-tough layout illegal: %v", res.Violations)
	}
	if res.GPU.ToughCells != 10 {
		t.Fatalf("tough cells = %d, want 10", res.GPU.ToughCells)
	}
	if res.GPU.CPUSeconds <= 0 {
		t.Fatal("CPU time not accounted for tough cells")
	}
}

func TestGPUBatchMaxRespected(t *testing.T) {
	l := &model.Layout{Name: "batch", NumSitesX: 2000, NumRows: 8, RowHeight: 8}
	for i := 0; i < 60; i++ {
		x := (i % 20) * 100
		y := (i / 20) * 2
		l.Cells = append(l.Cells, model.Cell{
			ID: i, Name: "c", X: x, Y: y, GX: x, GY: y, W: 4, H: 1,
			Parity: model.ParityAny,
		})
	}
	res := LegalizeGPU(l, GPUConfig{BatchMax: 4})
	if !res.Legal {
		t.Fatal("batch test illegal")
	}
	if res.GPU.MaxBatch > 4 {
		t.Fatalf("MaxBatch %d exceeds configured 4", res.GPU.MaxBatch)
	}
}

func TestSyncShareZeroTotal(t *testing.T) {
	var s GPUStats
	if s.SyncShare(0) != 0 {
		t.Fatal("zero total must give zero share")
	}
}
