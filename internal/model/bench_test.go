package model_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
)

func benchLayout(b *testing.B) *model.Layout {
	l, err := gen.Small(4000, 0.72, 11).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkCheck times the check every served result pays: Check(16) on
// benchLayout legalized, which finds nothing and so scans everything.
func BenchmarkCheck(b *testing.B) {
	r := core.Legalize(benchLayout(b), core.Config{})
	if !r.Legal {
		b.Fatalf("legalized bench layout is illegal: %v", r.Violations)
	}
	l := r.Layout
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Check(16)
	}
}

// BenchmarkCheckIllegal times Check(0) on benchLayout as generated, full
// of overlaps: the row sweep, as the analytical engine's repair loop runs
// it.
func BenchmarkCheckIllegal(b *testing.B) {
	l := benchLayout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Check(0)
	}
}

func BenchmarkMeasure(b *testing.B) {
	l := benchLayout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Measure(l)
	}
}

func BenchmarkClone(b *testing.B) {
	l := benchLayout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Clone()
	}
}

// codecLayout is a ~1k-cell layout, the size of one full-design upload.
func codecLayout(b *testing.B) *model.Layout {
	l, err := gen.Small(1000, 0.72, 11).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkEncode(b *testing.B) {
	l := codecLayout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.Encode(io.Discard, l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := model.Encode(&buf, codecLayout(b)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
