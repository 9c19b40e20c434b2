package curve

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// encodeHinges packs hinges the way FuzzSortAndMergeMatchesReference reads
// them: per hinge, six bytes holding the position as a little-endian int32
// and the two slopes as int8s.
func encodeHinges(bps []Breakpoint) []byte {
	out := make([]byte, 0, 6*len(bps))
	for _, b := range bps {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(b.X)))
		out = append(out, byte(int8(b.SL)), byte(int8(b.SR)))
	}
	return out
}

// decodeHinges reads encodeHinges' format, ignoring a trailing partial
// hinge.
func decodeHinges(data []byte) []Breakpoint {
	bps := make([]Breakpoint, 0, len(data)/6)
	for ; len(data) >= 6; data = data[6:] {
		bps = append(bps, Breakpoint{
			X:  int(int32(binary.LittleEndian.Uint32(data))),
			SL: int(int8(data[4])),
			SR: int(int8(data[5])),
		})
	}
	return bps
}

// FuzzSortAndMergeMatchesReference holds sortAndMerge to the map-based
// merge of TestSortAndMergeMatchesReference on arbitrary hinge lists, with
// one Evaluator reused across inputs. It also checks that the work charged
// depends on the lengths alone. The seeds straddle insertionMax, the
// longest key list sorted by insertion (two keys are the sentinels), in
// every arrival order the sorter meets or must survive: FOP's stream
// order, fully reversed, random, few distinct positions, and lo equal to
// hi.
func FuzzSortAndMergeMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, insertionMax - 2, insertionMax - 1, 72} {
		stream, lo, hi := fopHinges(rng, n/2, n/2)
		stream = stream[:n]
		reversed := slices.Clone(stream)
		slices.SortFunc(reversed, func(a, b Breakpoint) int { return cmp.Compare(b.X, a.X) })
		random := slices.Clone(stream)
		rng.Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
		dups := make([]Breakpoint, n)
		for i := range dups {
			dups[i] = Breakpoint{X: lo + 3*(i%4), SL: i%5 - 2, SR: (3*i)%5 - 2}
		}
		for _, bps := range [][]Breakpoint{stream, reversed, random, dups} {
			f.Add(encodeHinges(bps), int32(lo), int32(hi))
		}
		f.Add(encodeHinges(random), int32(stream[0].X), int32(stream[0].X))
	}
	var e Evaluator
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int32) {
		bps := decodeHinges(data)
		sums := map[int][2]int{int(lo): {}, int(hi): {}}
		for _, b := range bps {
			s := sums[b.X]
			sums[b.X] = [2]int{s[0] + b.SL, s[1] + b.SR}
		}
		var st Stats
		ms := e.sortAndMerge(bps, int(lo), int(hi), &st)
		m := len(bps) + 2
		if len(ms) != len(sums) || st.RawBps != m || st.MergedBps != len(sums) || st.SortOps != m*(bits.Len(uint(m))-1) {
			t.Fatalf("%d merged, stats %+v: want %d merged of %d raw, charged %d sort ops",
				len(ms), st, len(sums), m, m*(bits.Len(uint(m))-1))
		}
		for i, g := range ms {
			if i > 0 && ms[i-1].x >= g.x {
				t.Fatalf("merged positions not strictly ascending at %d", i)
			}
			if s := sums[g.x]; g.sl != s[0] || g.sr != s[1] {
				t.Fatalf("x=%d slopes (%d,%d), want (%d,%d)", g.x, g.sl, g.sr, s[0], s[1])
			}
		}
	})
}
