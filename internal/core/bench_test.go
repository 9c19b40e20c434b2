package core

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
)

// benchLayout is a ~1k-cell des_perf_1-shaped layout, the input a
// full-design job serves.
func benchLayout(b *testing.B) *model.Layout {
	spec, ok := gen.ByName("des_perf_1")
	if !ok {
		b.Fatal("des_perf_1 not in the suite")
	}
	l, err := spec.Generate(1000 / float64(spec.NumCells))
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkLegalize runs the FLEX engine the way a full-design job is
// served: Config defaults (sliding window 8, streamed FOP) on
// benchLayout. One iteration legalizes a fresh clone.
func BenchmarkLegalize(b *testing.B) {
	l := benchLayout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Legalize(l, Config{}); !res.Legal {
			b.Fatal("not legal")
		}
	}
}

// BenchmarkLegalizeTrail prices the step trail on BenchmarkLegalize's
// input: "record" runs with a fresh trail, as a band run on an
// outcome-caching service does with no base to replay; "replay" runs with
// a trail built on a finished run of the same input, so every step
// replays.
func BenchmarkLegalizeTrail(b *testing.B) {
	l := benchLayout(b)
	rec := mgl.NewTrail(nil)
	Legalize(l, Config{Trail: rec})
	rec.Seal()
	for _, c := range []struct {
		name string
		from *mgl.Trail
	}{{"record", nil}, {"replay", rec}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := Legalize(l, Config{Trail: mgl.NewTrail(c.from)}); !res.Legal {
					b.Fatal("not legal")
				}
			}
		})
	}
}
