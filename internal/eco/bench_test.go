package eco

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
)

// BenchmarkHash hashes a 10k-cell layout, the size of an ECO base: every
// outcome-cached job hashes its input, and every band of a banded one.
func BenchmarkHash(b *testing.B) {
	l, err := gen.Small(10000, 0.72, 3).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(l)
	}
}
