package core

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
)

// BenchmarkLegalize runs the FLEX engine the way a full-design job is
// served: Config defaults (sliding window 8, streamed FOP) on a ~1k-cell
// des_perf_1-shaped layout. One iteration legalizes a fresh clone.
func BenchmarkLegalize(b *testing.B) {
	spec, ok := gen.ByName("des_perf_1")
	if !ok {
		b.Fatal("des_perf_1 not in the suite")
	}
	l, err := spec.Generate(1000 / float64(spec.NumCells))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Legalize(l, Config{}); !res.Legal {
			b.Fatal("not legal")
		}
	}
}
