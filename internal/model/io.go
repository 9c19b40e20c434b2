package model

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The flexpl text format is a minimal, line-oriented placement exchange
// format used by the cmd/ tools and examples:
//
//	flexpl 1
//	design <name>
//	die <numSitesX> <numRows> <rowHeightSites>
//	cells <n>
//	<name> <gx> <gy> <w> <h> <parity:any|even|odd> <fixed:0|1> [<x> <y>]
//
// When the optional current position (x, y) is omitted it defaults to the
// global-placement position. Blank lines and lines starting with # are
// skipped, and surrounding white space is trimmed. Fields are separated by
// runs of Unicode white space.
//
// An integer is an optional sign followed by the longest run of ASCII
// digits (at least one) that fits in an int; anything after the digits up
// to the end of its field is ignored, so "12abc" reads as 12 and "0x10" as
// 0. Inside the header lines, only the last integer may carry such a tail.
// A die needs at least one site and one row, and it must be in proportion
// to its cells, because per-row and per-bin work is sized from it: with n
// cells and m = max(n, 1024), it may have at most m rows and at most
// 1024·m sites × rows. The design name is the first field after "design".
// A cell name is one field that does not start with #: it holds no white
// space, and a cell line starting with # would read as a comment.
//
// Encode writes the canonical form: single spaces, no comments, and the
// optional position only when it differs from the global one. Its bytes
// are the content address of the outcome cache (eco.Hash), so they must
// never change.

// Encode writes the layout in flexpl format. Each line is built in one
// reused buffer; the bufio.Writer keeps the first write error, which Flush
// returns.
func Encode(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	b := make([]byte, 0, 128)
	b = append(b, "flexpl 1\ndesign "...)
	b = append(b, l.Name...)
	b = append(b, "\ndie"...)
	b = appendInts(b, l.NumSitesX, l.NumRows, l.RowHeight)
	b = append(b, "\ncells"...)
	b = appendInts(b, len(l.Cells))
	b = append(b, '\n')
	bw.Write(b)
	for i := range l.Cells {
		c := &l.Cells[i]
		fixed := 0
		if c.Fixed {
			fixed = 1
		}
		b = append(b[:0], c.Name...)
		b = appendInts(b, c.GX, c.GY, c.W, c.H)
		b = append(b, ' ')
		b = append(b, c.Parity.String()...)
		b = appendInts(b, fixed)
		if c.X != c.GX || c.Y != c.GY {
			b = appendInts(b, c.X, c.Y)
		}
		b = append(b, '\n')
		bw.Write(b)
	}
	return bw.Flush()
}

// appendInts appends each value to b in decimal, each after one space.
func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// Decode reads a layout in flexpl format.
func Decode(r io.Reader) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	// next returns the next content line; it aliases the scanner's buffer,
	// so it is valid only until the following call.
	next := func() ([]byte, error) {
		for sc.Scan() {
			line++
			s := bytes.TrimSpace(sc.Bytes())
			if len(s) == 0 || s[0] == '#' {
				continue
			}
			return s, nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("flexpl line %d: %s", line, fmt.Sprintf(format, args...))
	}

	s, err := next()
	if err != nil {
		return nil, err
	}
	if string(s) != "flexpl 1" {
		return nil, errf("bad header %q", s)
	}
	l := &Layout{}
	if s, err = next(); err != nil {
		return nil, err
	}
	name, ok := scanWord(s, "design")
	if !ok {
		return nil, errf("bad design line %q", s)
	}
	l.Name = name
	if s, err = next(); err != nil {
		return nil, err
	}
	if !scanInts(s, "die", &l.NumSitesX, &l.NumRows, &l.RowHeight) {
		return nil, errf("bad die line %q", s)
	}
	if l.NumSitesX < 1 || l.NumRows < 1 {
		return nil, errf("die %d x %d needs at least one site and one row", l.NumSitesX, l.NumRows)
	}
	var n int
	if s, err = next(); err != nil {
		return nil, err
	}
	if !scanInts(s, "cells", &n) {
		return nil, errf("bad cells line %q", s)
	}
	if n < 0 {
		return nil, errf("negative cell count %d", n)
	}
	if !dieInProportion(l.NumSitesX, l.NumRows, n) {
		return nil, errf("die %d x %d is out of proportion to its cell count %d", l.NumSitesX, l.NumRows, n)
	}
	// Cap the pre-allocation: the header's count is untrusted (flexserve
	// decodes raw request bodies), and each claimed cell still needs a line
	// of input, so a lying header fails cheaply instead of sizing a huge
	// allocation up front.
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	l.Cells = make([]Cell, 0, capHint)
	var f [9][]byte
	for i := 0; i < n; i++ {
		if s, err = next(); err != nil {
			return nil, fmt.Errorf("flexpl: expected %d cells, got %d: %w", n, i, err)
		}
		nf := fields(s, f[:])
		if nf != 7 && nf != 9 {
			return nil, errf("bad cell line %q", s)
		}
		c := Cell{ID: i, Name: string(f[0])}
		var ints [5]int
		for j, k := range [5]int{1, 2, 3, 4, 6} {
			v, _, ok := scanInt(f[k])
			if !ok {
				return nil, errf("bad integer %q", f[k])
			}
			ints[j] = v
		}
		c.GX, c.GY, c.W, c.H = ints[0], ints[1], ints[2], ints[3]
		switch string(f[5]) {
		case "any":
			c.Parity = ParityAny
		case "even":
			c.Parity = ParityEven
		case "odd":
			c.Parity = ParityOdd
		default:
			return nil, errf("bad parity %q", f[5])
		}
		switch ints[4] {
		case 0:
			c.Fixed = false
		case 1:
			c.Fixed = true
		default:
			return nil, errf("bad fixed flag %d", ints[4])
		}
		c.X, c.Y = c.GX, c.GY
		if nf == 9 {
			if c.X, _, ok = scanInt(f[7]); !ok {
				return nil, errf("bad x %q", f[7])
			}
			if c.Y, _, ok = scanInt(f[8]); !ok {
				return nil, errf("bad y %q", f[8])
			}
		}
		if c.W <= 0 || c.H <= 0 {
			return nil, errf("cell %s has non-positive size %dx%d", c.Name, c.W, c.H)
		}
		l.Cells = append(l.Cells, c)
	}
	return l, nil
}

// dieSiteRowsPerCell and dieMinCells set the die rule of the format
// comment. Generated designs use 6–40 sites × rows per cell and far fewer
// rows than cells.
const (
	dieSiteRowsPerCell = 1024
	dieMinCells        = 1024
)

// dieInProportion reports whether a w × h die (both positive) may hold n
// cells under the die rule. The area is multiplied out in 128 bits, so no
// declared size overflows it.
func dieInProportion(w, h, n int) bool {
	m := uint64(max(n, dieMinCells))
	if uint64(h) > m {
		return false
	}
	areaHi, areaLo := bits.Mul64(uint64(w), uint64(h))
	capHi, capLo := bits.Mul64(m, dieSiteRowsPerCell)
	return areaHi < capHi || areaHi == capHi && areaLo <= capLo
}

// spaceAt reports whether s starts with a white-space rune, the set
// strings.Fields and fmt's scanner split on, and that rune's width.
// Invalid UTF-8 reads as a one-byte non-space rune.
func spaceAt(s []byte) (bool, int) {
	r, w := utf8.DecodeRune(s)
	return unicode.IsSpace(r), w
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf: the scanning loops
// test ASCII bytes against it and decode only the rest.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipSpace drops leading white space.
func skipSpace(s []byte) []byte {
	for len(s) > 0 {
		if c := s[0]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			s = s[1:]
		} else if sp, w := spaceAt(s); sp {
			s = s[w:]
		} else {
			break
		}
	}
	return s
}

// wordEnd returns the length of the non-space run s starts with.
func wordEnd(s []byte) int {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if sp, w := spaceAt(s[i:]); !sp {
			i += w
		} else {
			break
		}
	}
	return i
}

// fields splits s around runs of white space as strings.Fields does,
// storing the fields in dst. It returns the field count, or len(dst)+1
// when s holds more fields than dst.
func fields(s []byte, dst [][]byte) int {
	n := 0
	for s = skipSpace(s); len(s) > 0; s = skipSpace(s) {
		if n == len(dst) {
			return n + 1
		}
		e := wordEnd(s)
		dst[n] = s[:e]
		n++
		s = s[e:]
	}
	return n
}

// literal consumes lit and the format space fmt.Sscanf matches after it:
// at least one white-space rune (then any more), or the end of s.
func literal(s []byte, lit string) ([]byte, bool) {
	if len(s) < len(lit) || string(s[:len(lit)]) != lit {
		return nil, false
	}
	return spaceSep(s[len(lit):])
}

// spaceSep consumes one format space: a run of at least one white-space
// rune, or nothing at the end of s.
func spaceSep(s []byte) ([]byte, bool) {
	if len(s) == 0 {
		return s, true
	}
	if sp, _ := spaceAt(s); !sp {
		return nil, false
	}
	return skipSpace(s), true
}

// scanWord reads s as fmt.Sscanf(s, lit+" %s", &word) does: the first
// word after lit, where each invalid UTF-8 byte becomes U+FFFD.
func scanWord(s []byte, lit string) (string, bool) {
	s, ok := literal(s, lit)
	if !ok || len(s) == 0 {
		return "", false
	}
	w := s[:wordEnd(s)]
	if utf8.Valid(w) {
		return string(w), true
	}
	var b []byte
	for len(w) > 0 {
		r, n := utf8.DecodeRune(w)
		b = utf8.AppendRune(b, r)
		w = w[n:]
	}
	return string(b), true
}

// scanInts reads s as fmt.Sscanf(s, lit+" %d %d …", dst...) does: the
// literal, then each integer after a format space. Anything after the
// last integer is ignored.
func scanInts(s []byte, lit string, dst ...*int) bool {
	s, ok := literal(s, lit)
	if !ok {
		return false
	}
	for i, d := range dst {
		if i > 0 {
			if s, ok = spaceSep(s); !ok {
				return false
			}
		}
		if *d, s, ok = scanInt(s); !ok {
			return false
		}
	}
	return true
}

// scanInt reads one integer as fmt's %d verb does: an optional sign,
// then the longest run of ASCII digits, at least one, whose value must fit
// in an int. It returns the value and the rest of s after the digits.
func scanInt(s []byte) (int, []byte, bool) {
	i := 0
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	start := i
	var u uint64
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, nil, false
		}
		u = u*10 + uint64(s[i]-'0')
		if u > 1<<63 {
			return 0, nil, false
		}
	}
	if i == start || (!neg && u > 1<<63-1) {
		return 0, nil, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, nil, false
	}
	return int(v), s[i:], true
}
