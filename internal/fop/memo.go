package fop

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"unsafe"

	"github.com/flex-eda/flex/internal/region"
)

// Memo records the searches of one engine run by content, so that a later
// run meeting the same regions replays them instead of searching again. A
// search's key is the SHA-256 of a canonical encoding of everything Best
// reads: the target's position, size, row height and parity rule, the
// options, the window, each local cell's X, Y, GX, W and H in region
// order, and each segment's row, span and cell list. Cell IDs stay out,
// because Best never reads them. Best is a pure function of those inputs,
// so a replayed search returns the recorded Candidate and charges the
// recorded Stats, and a run through a memo has the results, op counts and
// per-target traces of one that searched anew.
//
// A run records every search it makes, replayed ones included, and replays
// from its own record and from the finished memo it was built from. The
// record is an index of keys into a slice of results, neither of which
// holds a pointer, so the collector never scans them. A memo serves one
// goroutine while its run records; once sealed it is never written again
// and any number of runs may replay from it at once.
type Memo struct {
	from         *Memo             // the finished memo this run replays; nil for none
	index        map[memoKey]int32 // key -> position in recs
	recs         []memoRec
	buf          []byte // the key encoding, reused by every search
	h            hash.Hash
	sum          []byte // the digest, reused by every search
	hits, misses int
}

// memoKey is a search's content address.
type memoKey [sha256.Size]byte

// memoRec is one recorded search: what Best returned and the work it
// charged. It is larger than a map stores inline, so records live in a
// slice beside the index rather than behind one pointer each.
type memoRec struct {
	c  Candidate
	st Stats
}

// NewMemo returns an empty memo that replays from the finished memo from
// (nil for none).
func NewMemo(from *Memo) *Memo {
	return &Memo{from: from}
}

// Reserve sizes the record for n searches, once, before the run records: an
// engine run makes at least one search per movable cell. A nil memo ignores
// it.
func (m *Memo) Reserve(n int) {
	if m == nil || m.index != nil {
		return
	}
	m.index = make(map[memoKey]int32, n)
	m.recs = make([]memoRec, 0, n)
}

// Best is f.Best through the memo: a search whose key the memo or its
// source recorded is replayed, any other one runs on f and is recorded. A
// nil memo runs every search.
func (m *Memo) Best(f *Finder, reg *region.Region, t Target, opt Options, st *Stats) Candidate {
	if m == nil {
		return f.Best(reg, t, opt, st)
	}
	m.Reserve(0)
	k := m.key(reg, t, opt)
	var r *memoRec
	if i, ok := m.index[k]; ok {
		r = &m.recs[i]
	} else if i, ok := m.from.lookup(k); ok {
		m.index[k] = int32(len(m.recs))
		m.recs = append(m.recs, m.from.recs[i])
		r = &m.recs[len(m.recs)-1]
	}
	if r != nil {
		m.hits++
	} else {
		m.misses++
		m.index[k] = int32(len(m.recs))
		m.recs = append(m.recs, memoRec{})
		r = &m.recs[len(m.recs)-1]
		r.c = f.Best(reg, t, opt, &r.st)
	}
	if st != nil {
		st.Add(&r.st)
	}
	return r.c
}

// lookup finds k in a finished memo; a nil memo holds nothing.
func (m *Memo) lookup(k memoKey) (int32, bool) {
	if m == nil {
		return 0, false
	}
	i, ok := m.index[k]
	return i, ok
}

// Seal ends the run: the memo drops the memo it replayed from, so that a
// stored memo holds only its own run's searches and keeps no other memo
// alive, and its key scratch, which it never needs again.
func (m *Memo) Seal() { m.from, m.buf, m.h, m.sum = nil, nil, nil, nil }

// Hits counts the searches the memo replayed.
func (m *Memo) Hits() int { return m.hits }

// Misses counts the searches that ran.
func (m *Memo) Misses() int { return m.misses }

// Per-record sizes: an index slot (key, position, and the map's share of
// control bytes and overflow links, 37 or 38 bytes, rounded up) and a
// result.
const (
	slotBytes = int64(unsafe.Sizeof(memoKey{})+unsafe.Sizeof(int32(0))) + 4
	recBytes  = int64(unsafe.Sizeof(memoRec{}))
)

// ApproxBytes bounds the memo's resident footprint: the result slice's
// capacity; the index, which once a growth has finished holds at most
// three slots per record (or per reserved record, whichever is more) in
// Go's Swiss-table maps (16/7, load 7/16 to 7/8) and in the bucket maps
// before them (2.62 with preallocated overflow, load 6.5/16 to 6.5/8);
// and the key and digest buffers. The allocator hands out whole 8 KiB
// pages for the result slice and for each index table of up to 1024
// slots, so each may round up by one.
func (m *Memo) ApproxBytes() int64 {
	if m == nil {
		return 0
	}
	n := int64(cap(m.recs))
	slots := 3*n + 16
	return 512 + int64(cap(m.buf)+cap(m.sum)) + n*recBytes + slots*slotBytes + (2+slots/1024)*8192
}

// key encodes everything Best reads into the reusable buffer and hashes it.
// Every variable-length part is preceded by its length or follows from
// fields before it, so distinct inputs never share an encoding.
func (m *Memo) key(reg *region.Region, t Target, opt Options) memoKey {
	w := reg.Window
	flags := 0
	if opt.Streamed {
		flags |= 1
	}
	if opt.MeasureOriginalShift {
		flags |= 2
	}
	b := appendInts(m.buf[:0], flags, w.X, w.Y, w.W, w.H, t.GX, t.GY, t.W, t.H, t.RowHeight)
	// The parity rule as Best applies it: one bit per candidate row, a
	// count that the window and target height fix.
	var bits byte
	n := 0
	for y := w.Y; y+t.H <= w.Y+w.H; y++ {
		if t.ParityOK == nil || t.ParityOK(y) {
			bits |= 1 << (n % 8)
		}
		if n++; n%8 == 0 {
			b, bits = append(b, bits), 0
		}
	}
	if n%8 != 0 {
		b = append(b, bits)
	}
	b = appendInts(b, len(reg.Cells))
	for i := range reg.Cells {
		c := &reg.Cells[i]
		b = appendInts(b, c.X, c.Y, c.GX, c.W, c.H)
	}
	b = appendInts(b, len(reg.Segments))
	for i := range reg.Segments {
		s := &reg.Segments[i]
		b = appendInts(b, s.Row, s.Lo, s.Hi, len(s.Cells))
		b = appendInts(b, s.Cells...)
	}
	m.buf = b
	// sha256.Sum256 would allocate a digest per search; the memo keeps one.
	if m.h == nil {
		m.h = sha256.New()
	}
	m.h.Reset()
	m.h.Write(b)
	m.sum = m.h.Sum(m.sum[:0])
	return memoKey(m.sum)
}

// appendInts appends each value as a zig-zag varint.
func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}
