package core

import (
	"testing"

	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/gen"
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

// BenchmarkLegalizeMemo prices the FOP memo on BenchmarkLegalize's input:
// "record" runs with a fresh memo, as a band run on an outcome-caching
// service does with no base to replay; "replay" runs with a memo built on
// a finished run of the same input, so every search replays.
func BenchmarkLegalizeMemo(b *testing.B) {
	l := benchLayout(b)
	rec := fop.NewMemo(nil)
	Legalize(l, Config{Memo: rec})
	rec.Seal()
	for _, c := range []struct {
		name string
		from *fop.Memo
	}{{"record", nil}, {"replay", rec}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := Legalize(l, Config{Memo: fop.NewMemo(c.from)}); !res.Legal {
					b.Fatal("not legal")
				}
			}
		})
	}
}
