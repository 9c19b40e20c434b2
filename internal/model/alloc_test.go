package model

import (
	"bytes"
	"io"
	"testing"
)

// The codec's allocation ceilings. Decode allocates each cell's name and
// grows nothing per integer; Encode appends into one line buffer, so its
// count is the same for ten cells as for a thousand.

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
