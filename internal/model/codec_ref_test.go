package model

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"strings"
)

// The fmt-based flexpl codec the hand-written one replaced, kept as the
// differential reference: FuzzDecodeMatchesReference and the golden tests
// hold Encode and Decode to its bytes, values and error text.

// refEncode writes the layout in flexpl format with fmt.
func refEncode(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "flexpl 1")
	fmt.Fprintf(bw, "design %s\n", l.Name)
	fmt.Fprintf(bw, "die %d %d %d\n", l.NumSitesX, l.NumRows, l.RowHeight)
	fmt.Fprintf(bw, "cells %d\n", len(l.Cells))
	for i := range l.Cells {
		c := &l.Cells[i]
		fixed := 0
		if c.Fixed {
			fixed = 1
		}
		if c.X == c.GX && c.Y == c.GY {
			fmt.Fprintf(bw, "%s %d %d %d %d %s %d\n", c.Name, c.GX, c.GY, c.W, c.H, c.Parity, fixed)
		} else {
			fmt.Fprintf(bw, "%s %d %d %d %d %s %d %d %d\n", c.Name, c.GX, c.GY, c.W, c.H, c.Parity, fixed, c.X, c.Y)
		}
	}
	return bw.Flush()
}

// refDecode reads a layout in flexpl format with fmt.Sscanf. With dieRule
// it also rejects a die below one site by one row, or out of proportion to
// its cell count, at the same points and with the same errors as Decode;
// without it, it accepts such dies as the codec once did.
func refDecode(r io.Reader, dieRule bool) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	next := func() (string, error) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("flexpl line %d: %s", line, fmt.Sprintf(format, args...))
	}

	s, err := next()
	if err != nil {
		return nil, err
	}
	if s != "flexpl 1" {
		return nil, errf("bad header %q", s)
	}
	l := &Layout{}
	if s, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(s, "design %s", &l.Name); err != nil {
		return nil, errf("bad design line %q", s)
	}
	if s, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(s, "die %d %d %d", &l.NumSitesX, &l.NumRows, &l.RowHeight); err != nil {
		return nil, errf("bad die line %q", s)
	}
	if dieRule && (l.NumSitesX < 1 || l.NumRows < 1) {
		return nil, errf("die %d x %d needs at least one site and one row", l.NumSitesX, l.NumRows)
	}
	var n int
	if s, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(s, "cells %d", &n); err != nil {
		return nil, errf("bad cells line %q", s)
	}
	if n < 0 {
		return nil, errf("negative cell count %d", n)
	}
	if dieRule && !refDieInProportion(l.NumSitesX, l.NumRows, n) {
		return nil, errf("die %d x %d is out of proportion to its cell count %d", l.NumSitesX, l.NumRows, n)
	}
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	l.Cells = make([]Cell, 0, capHint)
	for i := 0; i < n; i++ {
		if s, err = next(); err != nil {
			return nil, fmt.Errorf("flexpl: expected %d cells, got %d: %w", n, i, err)
		}
		f := strings.Fields(s)
		if len(f) != 7 && len(f) != 9 {
			return nil, errf("bad cell line %q", s)
		}
		var c Cell
		c.ID = i
		c.Name = f[0]
		ints := make([]int, 0, 6)
		for _, k := range []int{1, 2, 3, 4, 6} {
			var v int
			if _, err := fmt.Sscanf(f[k], "%d", &v); err != nil {
				return nil, errf("bad integer %q", f[k])
			}
			ints = append(ints, v)
		}
		c.GX, c.GY, c.W, c.H = ints[0], ints[1], ints[2], ints[3]
		switch f[5] {
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
		if len(f) == 9 {
			if _, err := fmt.Sscanf(f[7], "%d", &c.X); err != nil {
				return nil, errf("bad x %q", f[7])
			}
			if _, err := fmt.Sscanf(f[8], "%d", &c.Y); err != nil {
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

// refDieInProportion states the die rule in arbitrary precision: with
// m = max(n, 1024), at most m rows and at most 1024·m sites × rows.
func refDieInProportion(w, h, n int) bool {
	m := big.NewInt(int64(max(n, 1024)))
	area := new(big.Int).Mul(big.NewInt(int64(w)), big.NewInt(int64(h)))
	return big.NewInt(int64(h)).Cmp(m) <= 0 && area.Cmp(m.Mul(m, big.NewInt(1024))) <= 0
}
