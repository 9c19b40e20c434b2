package model

import (
	"bytes"
	"io"
	"testing"
)

// The codec's and the legality check's allocation ceilings. Decode
// allocates each cell's name and grows nothing per integer; Encode appends
// into one line buffer, so its count is the same for ten cells as for a
// thousand, and so is Check's on a legal layout, which proves it clean
// with one buffer.

func TestDecodeAllocsPerCell(t *testing.T) {
	data, l := goldenLayout(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 2 * float64(len(l.Cells)); allocs > limit {
		t.Fatalf("Decode of %d cells made %.0f allocations, want at most %.0f", len(l.Cells), allocs, limit)
	}
}

func TestEncodeAllocsIndependentOfCells(t *testing.T) {
	_, l := goldenLayout(t)
	small := *l
	small.Cells = l.Cells[:10]
	encodeAllocs := func(l *Layout) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := Encode(io.Discard, l); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, aAll := encodeAllocs(&small), encodeAllocs(l); aAll > a10 {
		t.Fatalf("Encode made %.0f allocations for 10 cells but %.0f for %d", a10, aAll, len(l.Cells))
	}
}

func TestCheckAllocsConstant(t *testing.T) {
	checkAllocs := func(n int) float64 {
		l := packedLayout(n, 1)
		if vs := l.Check(16); len(vs) != 0 {
			t.Fatalf("packed layout of %d cells is illegal: %v", n, vs)
		}
		return testing.AllocsPerRun(20, func() { l.Check(16) })
	}
	if a100, a4000 := checkAllocs(100), checkAllocs(4000); a100 != a4000 || a4000 > 4 {
		t.Fatalf("Check of a legal layout made %.0f allocations at 100 cells and %.0f at 4000, want the same count, at most 4", a100, a4000)
	}
}
