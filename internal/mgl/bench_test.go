package mgl_test

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
)

// BenchmarkLegalize runs the full sequential MGL flow with streamed FOP
// and a 64-entry sliding window, an order-heavy setup (the FLEX engine
// defaults to a window of 8; see core.BenchmarkLegalize). One iteration
// legalizes a fresh clone.
func BenchmarkLegalize(b *testing.B) {
	l, err := gen.Small(1500, 0.7, 23).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mgl.Config{Streamed: true, SlidingWindow: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mgl.Legalize(l, cfg)
		if !res.Legal {
			b.Fatal("not legal")
		}
	}
	b.StopTimer()
	_ = model.Measure(l)
}
