package region_test

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/region"
)

func benchIndex(b *testing.B) (*model.Layout, *region.Index) {
	l, err := gen.Small(4000, 0.72, 11).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	idx := region.NewIndex(l, 32, 8, nil)
	return l, idx
}

// BenchmarkIndexQuery sweeps a legalizer-shaped window across the die,
// the query pattern the mgl engine issues once per placed cell.
func BenchmarkIndexQuery(b *testing.B) {
	l, idx := benchIndex(b)
	die := l.Die()
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := (i * 37) % (die.W - 64)
		y := (i * 13) % (die.H - 16)
		dst = idx.Query(geom.NewRect(x, y, 64, 16), dst[:0])
	}
	_ = dst
}

// benchExtraction is the extraction benchmarks' set-up: every cell
// placed, the first movable cell as target, and 16 legalizer-shaped
// windows across the die.
func benchExtraction(b *testing.B) (*model.Layout, *region.Index, []bool, int, []geom.Rect) {
	l, idx := benchIndex(b)
	die := l.Die()
	placed := make([]bool, len(l.Cells))
	target := -1
	for i := range l.Cells {
		placed[i] = true
		if target < 0 && !l.Cells[i].Fixed {
			target = i
		}
	}
	wins := make([]geom.Rect, 16)
	for i := range wins {
		wins[i] = geom.NewRect((i*53)%(die.W-64), (i*17)%(die.H-16), 64, 16)
	}
	return l, idx, placed, target, wins
}

// BenchmarkExtractFrom builds the local region for a fixed window set on
// one reused Extractor, the per-cell extraction step of every engine.
func BenchmarkExtractFrom(b *testing.B) {
	l, idx, placed, target, wins := benchExtraction(b)
	var x region.Extractor
	var cands []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win := wins[i%len(wins)]
		cands = idx.Query(win, cands[:0])
		x.From(l, placed, target, win, cands)
	}
}
