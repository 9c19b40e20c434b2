package model

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// codecSeeds seed both codec fuzz targets on top of their committed
// corpora: well-formed and malformed layouts, and the corners of the
// integer grammar, white space and line handling.
var codecSeeds = []string{
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 0 0 2 1 any 0\n",
	"flexpl 1\ndesign mix\ndie 16 8 8\ncells 3\n" +
		"a 0 0 2 1 any 0\nb 4 2 3 2 even 0 5 2\nblk 8 0 4 8 odd 1\n",
	"flexpl 1\n# comment\ndesign c\ndie 4 2 8\ncells 0\n",
	"flexpl 2\ndesign d\ndie 8 4 8\ncells 1\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 2\na 0 0 2 1 any 0\n",
	// Integers: explicit sign, a tail after the digits, a hex or
	// underscored spelling (read up to the first non-digit), overflow,
	// the int extremes, and a tail before a later header integer.
	"flexpl 1\ndesign d\ndie +8 4 8\ncells +1\na +12 -0 2 1 any 0 +3 -1\n",
	"flexpl 1\ndesign d\ndie 8 4 8abc\ncells 1abc\na 12abc 0 2 1 any 0 3x 1y\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 0x10 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 1_000 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 12345678901234567890 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na -9223372036854775808 9223372036854775807 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na -9223372036854775809 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 9223372036854775808 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8x 4 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na - + 2 1 any 0\n",
	// A header keyword glued to what follows.
	"flexpl 1\ndesignx\ndie 8 4 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie8 4 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells0\n",
	// U+00A0 and other Unicode white space between fields.
	"flexpl 1\ndesign\u00a0d\ndie\u00a08\u00a04\u20038\ncells\u30001\n" +
		"a\u00a00\u00a00\u00a02 1\u0085any\u00a00\u00a0\n",
	// CRLF line ends, and a lone CR inside a line.
	"flexpl 1\r\ndesign d\r\ndie 8 4 8\r\ncells 1\r\na 0\r0 2 1 any 0\r\n",
	// Comment and blank lines, trailing header words, a commented cell.
	"# header\n\nflexpl 1\n\n# c\ndesign d e\n  \ndie 8 4 8 # trailing\ncells 1\n\t\n" +
		"#a 0 0 1 1 any 0\na 0 0 2 1 any 0\n",
	// Dies without sites or rows.
	"flexpl 1\ndesign d\ndie 8 -4 8\ncells 1\na 0 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 0 4 8\ncells 0\n",
	// Dies at and past the proportion limits: 1024 rows and 1024² sites ×
	// rows up to 1024 cells, then one row and 1024 site-rows per cell; a
	// billion-square die; products that wrap in 64 bits, to 1024 and to
	// about 2^64.
	"flexpl 1\ndesign d\ndie 1024 1024 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie 1025 1024 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie 1 1025 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie 1024 1025 8\ncells 1025\n",
	"flexpl 1\ndesign d\ndie 1000000000 1000000000 8\ncells 1\na 0 0 2 1 any 0\n",
	"flexpl 1\ndesign d\ndie 18014398509481985 1024 8\ncells 0\n",
	"flexpl 1\ndesign d\ndie 9223372036854775807 9223372036854775807 8\ncells 9223372036854775807\n",
	// Cells as wide and as tall as the die, then one site wider or one
	// row taller, and a fixed cell 10^12 rows tall in an 8-row die.
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 2\na 0 0 8 1 any 0\nb 0 0 1 4 any 1\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 0 0 9 1 any 0\n",
	"flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 0 0 1 5 even 0\n",
	"flexpl 1\ndesign d\ndie 8 8 8\ncells 1\nb 10 0 2 1000000000000 any 1\n",
	// Invalid UTF-8 in the design and cell names.
	"flexpl 1\ndesign \xff\xe2\x82\ndie 8 4 8\ncells 1\n\xc2 0 0 2 1 any 0\n",
}

// FuzzFlexplRoundTrip checks the flexpl codec's canonical fixed point on
// arbitrary bytes: Decode may reject an input (it is line-oriented and
// lenient about trailing garbage inside fields), but whatever it accepts
// must re-encode to a form that decodes to the very same canonical bytes.
// This is the invariant every content-hash consumer (the outcome cache
// keys layouts by canonical flexpl bytes) depends on.
func FuzzFlexplRoundTrip(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // malformed input may be rejected, never panic
		}
		var first bytes.Buffer
		if err := Encode(&first, l); err != nil {
			t.Fatalf("encode of decoded layout failed: %v", err)
		}
		l2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Encode(&second, l2); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.Bytes(), second.Bytes())
		}
	})
}

// FuzzDecodeMatchesReference holds the hand-written codec to the fmt-based
// one it replaced: the same inputs accepted, the same error text, equal
// layouts and byte-identical re-encodings. The one intended difference is
// the die rule: a die without sites or rows, or out of proportion to its
// cell count, and a cell larger than its die, are now rejected; the
// reference is checked to differ from its old self only there.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		want, wantErr := refDecode(bytes.NewReader(data), true)
		if errText(err) != errText(wantErr) {
			t.Fatalf("Decode error %q, reference %q", errText(err), errText(wantErr))
		}
		old, oldErr := refDecode(bytes.NewReader(data), false)
		if errText(oldErr) != errText(wantErr) || !reflect.DeepEqual(old, want) {
			if e := errText(wantErr); !strings.Contains(e, "needs at least one site and one row") &&
				!strings.Contains(e, "is out of proportion to its cell count") &&
				!strings.Contains(e, "is larger than its") {
				t.Fatalf("die rule changed more than degenerate dies: old %v, new %v", oldErr, wantErr)
			}
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode = %+v, reference %+v", got, want)
		}
		var enc, ref bytes.Buffer
		if err := Encode(&enc, got); err != nil {
			t.Fatal(err)
		}
		if err := refEncode(&ref, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), ref.Bytes()) {
			t.Fatalf("Encode:\n%q\nreference:\n%q", enc.Bytes(), ref.Bytes())
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzCheckMatchesReference holds Check to the row sweep it replaced, on
// small layouts built from fuzz bytes (checkLayout): the same violations in
// the same order at limits 0, 1 and 16, and OverlapArea to the former sum.
func FuzzCheckMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if l := checkLayout(data); l != nil {
			checkMatchesReference(t, l)
		}
	})
}

// checkLayout builds a layout from fuzz bytes: two bytes size the die (up
// to 63 sites by 11 rows), then each byte triple a, b, c packs a cell 1+a%6
// sites wide and 1+a/6%3 rows tall on row b%12, c%3 sites after its rows'
// cells and fixed if c&4 is set; or, with a's top bit set, perturbs the
// cell b mod the count with kind a and other cell c mod the count.
func checkLayout(data []byte) *Layout {
	if len(data) < 2 {
		return nil
	}
	p := newPacker("fuzz", int(data[0]%64), int(data[1]%12))
	for data = data[2:]; len(data) >= 3; data = data[3:] {
		a, b, c := int(data[0]), int(data[1]), int(data[2])
		if a&0x80 == 0 {
			p.place(1+a%6, 1+a/6%3, b%12, c%3, c&4 != 0)
		} else if n := len(p.l.Cells); n > 0 {
			perturb(p.l, a, b%n, c%n)
		}
	}
	return p.l
}
