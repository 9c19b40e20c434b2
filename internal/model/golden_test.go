package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"testing"
)

// Canonical flexpl bytes are a content address: eco.Hash keys the outcome
// cache, -cache-dir file names and clients' base handles on them. These
// pins fail on any byte change; the hex values were computed with the
// fmt-based Encode this codec replaced.

// goldenFile is a legalized ~1k-cell layout (fixed blockages, displaced
// and undisplaced cells) in canonical form.
const goldenFile = "testdata/golden_1k.flexpl"

const goldenFileSHA256 = "673dd1c11b47de38899ebd2f4ac88cf57d8407ee3107c8e4652e553daf4a1906"

// goldenLayout reads the golden file and decodes it.
func goldenLayout(t testing.TB) ([]byte, *Layout) {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return data, l
}

type goldenCase struct {
	name, sha256 string
	l            *Layout
}

// goldenCases covers what a generated design lacks: every parity, fixed
// and movable cells, displaced cells (the nine-field form), negative and
// multi-digit coordinates, the int extremes, and an empty layout.
func goldenCases() []goldenCase {
	mixed := &Layout{Name: "golden", NumSitesX: 1234, NumRows: 56, RowHeight: 8}
	add := func(name string, gx, gy, x, y, w, h int, p PGParity, fixed bool) {
		mixed.Cells = append(mixed.Cells, Cell{
			ID: len(mixed.Cells), Name: name, GX: gx, GY: gy, X: x, Y: y, W: w, H: h,
			Parity: p, Fixed: fixed,
		})
	}
	add("a", 0, 0, 0, 0, 4, 1, ParityAny, false)
	add("b_even", 10, 2, 12, 2, 6, 2, ParityEven, false)
	add("c_odd", 987654, 31, 987650, 33, 3, 2, ParityOdd, false)
	add("blk", 30, 0, 30, 0, 5, 8, ParityAny, true)
	add("fixed_moved", 40, 4, 41, 4, 2, 3, ParityAny, true)
	add("neg_anchor", -17, -3, 0, 0, 2, 1, ParityAny, false)
	add("neg_pos", 5, 5, -120, -1, 12, 4, ParityEven, false)
	add("y_only", 7, 9, 7, 10, 1, 1, ParityOdd, false)
	add("extremes", math.MinInt64, 0, math.MaxInt64, 1, 1, 1, ParityAny, false)
	return []goldenCase{
		{"mixed", "408522f0fccfd3146c4585537fe6bd32761f251cda11748aaae177a6283d66a1", mixed},
		{"empty", "8adfe971159f1ad923834ec944eade5b37323b58c1b4d1ed0e80ba025037a27a", &Layout{Name: "empty", NumSitesX: 1, NumRows: 1, RowHeight: 1}},
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenFileIsCanonical(t *testing.T) {
	data, l := goldenLayout(t)
	if got := sha256Hex(data); got != goldenFileSHA256 {
		t.Fatalf("%s sha256 = %s, want %s", goldenFile, got, goldenFileSHA256)
	}
	if len(l.Cells) < 1000 {
		t.Fatalf("golden layout has %d cells, want about 1k", len(l.Cells))
	}
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("%s does not re-encode to itself", goldenFile)
	}
}

func TestEncodeGoldenBytes(t *testing.T) {
	for _, g := range goldenCases() {
		var buf bytes.Buffer
		if err := Encode(&buf, g.l); err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(buf.Bytes()); got != g.sha256 {
			t.Errorf("%s: Encode sha256 = %s, want %s\n%s", g.name, got, g.sha256, buf.Bytes())
		}
	}
}
