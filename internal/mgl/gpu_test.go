package mgl_test

import (
	"testing"

	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
)

func testLayout(t *testing.T, n int, density float64, seed int64) *model.Layout {
	t.Helper()
	l, err := gen.Small(n, density, seed).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGPULegalizes(t *testing.T) {
	l := testLayout(t, 400, 0.6, 301)
	res := mgl.LegalizeGPU(l, mgl.GPUConfig{})
	if !res.Legal {
		t.Fatalf("GPU baseline illegal: %v", res.Violations)
	}
	if res.GPU.Rounds == 0 || res.GPU.MaxBatch == 0 {
		t.Fatalf("no kernel rounds recorded: %+v", res.GPU)
	}
	if res.GPU.ToughCells == 0 {
		t.Fatal("no tough cells classified; the CPU path is untested")
	}
	if res.TotalSeconds <= 0 {
		t.Fatal("total time not positive")
	}
}

func TestGPUDeterminism(t *testing.T) {
	l := testLayout(t, 250, 0.6, 302)
	a := mgl.LegalizeGPU(l, mgl.GPUConfig{})
	b := mgl.LegalizeGPU(l, mgl.GPUConfig{})
	if a.TotalSeconds != b.TotalSeconds {
		t.Fatalf("time differs: %v vs %v", a.TotalSeconds, b.TotalSeconds)
	}
	for i := range a.Layout.Cells {
		if a.Layout.Cells[i].X != b.Layout.Cells[i].X {
			t.Fatalf("cell %d position differs", i)
		}
	}
}

func TestSyncShareSignificant(t *testing.T) {
	// Fig. 2(b): data synchronization is a large share of the GPU
	// legalizer's runtime.
	l := testLayout(t, 600, 0.6, 303)
	res := mgl.LegalizeGPU(l, mgl.GPUConfig{})
	share := res.GPU.SyncShare(res.TotalSeconds)
	if share < 0.10 || share > 0.75 {
		t.Fatalf("sync share %v outside plausible band [0.10, 0.75]", share)
	}
}

func TestMaxParallelismBelowCUDACores(t *testing.T) {
	// Fig. 2(c): the number of concurrently processable regions is far
	// below the CUDA core count.
	l := testLayout(t, 800, 0.55, 304)
	res := mgl.LegalizeGPU(l, mgl.GPUConfig{})
	if res.GPU.MaxBatch >= mgl.CUDACores {
		t.Fatalf("max parallelism %d not below core count %d", res.GPU.MaxBatch, mgl.CUDACores)
	}
}

func TestGPUSlowerThanFLEXAndWorseQuality(t *testing.T) {
	// Table 1 shape: FLEX beats the CPU-GPU baseline in runtime, and the
	// baseline's displacement is no better than FLEX's.
	l := testLayout(t, 500, 0.65, 305)
	g := mgl.LegalizeGPU(l, mgl.GPUConfig{})
	f := core.Legalize(l, core.Config{})
	if f.TotalSeconds >= g.TotalSeconds {
		t.Fatalf("FLEX (%.6fs) not faster than CPU-GPU (%.6fs)", f.TotalSeconds, g.TotalSeconds)
	}
	if g.Metrics.AveDis < f.Metrics.AveDis*0.97 {
		t.Fatalf("GPU quality unexpectedly better: %v vs FLEX %v",
			g.Metrics.AveDis, f.Metrics.AveDis)
	}
}
