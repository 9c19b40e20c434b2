package eco

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/shard"
)

// testLayout builds a small die: 16 sites × 8 rows with two movable cells
// and one fixed blockage stripe.
func testLayout() *model.Layout {
	return &model.Layout{
		Name: "t", NumSitesX: 16, NumRows: 8, RowHeight: 8,
		Cells: []model.Cell{
			{ID: 0, Name: "a", X: 0, Y: 0, GX: 0, GY: 0, W: 2, H: 1},
			{ID: 1, Name: "b", X: 4, Y: 5, GX: 4, GY: 5, W: 3, H: 2, Parity: model.ParityOdd},
			{ID: 2, Name: "blk", X: 12, Y: 0, GX: 12, GY: 0, W: 2, H: 8, Fixed: true},
		},
	}
}

func TestApplyMove(t *testing.T) {
	base := testLayout()
	wantHash := Hash(base)
	out, err := Apply(base, []Edit{{Op: OpMove, Cell: "a", GX: 6, GY: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if Hash(base) != wantHash {
		t.Fatal("Apply mutated the base layout")
	}
	c := out.Cells[0]
	if c.GX != 6 || c.GY != 2 || c.X != 6 || c.Y != 2 {
		t.Fatalf("moved cell at %+v, want anchor and position at (6,2)", c)
	}
}

func TestApplyInsertDelete(t *testing.T) {
	base := testLayout()
	out, err := Apply(base, []Edit{
		{Op: OpInsert, Cell: "new", GX: 8, GY: 3, W: 2, H: 2, Parity: "odd"},
		{Op: OpDelete, Cell: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(out.Cells))
	}
	for i, c := range out.Cells {
		if c.ID != i {
			t.Fatalf("cell %d has ID %d after delete renumbering", i, c.ID)
		}
	}
	var found bool
	for _, c := range out.Cells {
		if c.Name == "new" {
			found = true
			if c.Parity != model.ParityOdd || c.W != 2 || c.H != 2 {
				t.Fatalf("inserted cell %+v", c)
			}
		}
		if c.Name == "a" {
			t.Fatal("deleted cell survived")
		}
	}
	if !found {
		t.Fatal("inserted cell missing")
	}
}

func TestApplyRejections(t *testing.T) {
	base := testLayout()
	cases := []struct {
		name string
		edit Edit
		want string
	}{
		{"unknown move", Edit{Op: OpMove, Cell: "nope", GX: 0, GY: 0}, "unknown cell"},
		{"fixed move", Edit{Op: OpMove, Cell: "blk", GX: 0, GY: 0}, "fixed"},
		{"out of die", Edit{Op: OpMove, Cell: "a", GX: 15, GY: 0}, "outside"},
		{"negative pos", Edit{Op: OpMove, Cell: "a", GX: -1, GY: 0}, "outside"},
		{"dup insert", Edit{Op: OpInsert, Cell: "a", GX: 0, GY: 0, W: 1, H: 1}, "already exists"},
		{"unnamed insert", Edit{Op: OpInsert, GX: 0, GY: 0, W: 1, H: 1}, "needs a cell name"},
		{"space in name", Edit{Op: OpInsert, Cell: "z z", W: 1, H: 1}, "one flexpl field"},
		{"tab in name", Edit{Op: OpInsert, Cell: "z\tz", W: 1, H: 1}, "one flexpl field"},
		{"newline in name", Edit{Op: OpInsert, Cell: "z\nz", W: 1, H: 1}, "one flexpl field"},
		{"nbsp in name", Edit{Op: OpInsert, Cell: "z\u00a0z", W: 1, H: 1}, "one flexpl field"},
		{"trailing space", Edit{Op: OpInsert, Cell: "z ", W: 1, H: 1}, "one flexpl field"},
		{"leading hash", Edit{Op: OpInsert, Cell: "#z", W: 1, H: 1}, "one flexpl field"},
		{"zero size", Edit{Op: OpInsert, Cell: "z", GX: 0, GY: 0, W: 0, H: 1}, "non-positive"},
		{"bad parity", Edit{Op: OpInsert, Cell: "z", GX: 0, GY: 0, W: 1, H: 1, Parity: "up"}, "bad parity"},
		{"fixed delete", Edit{Op: OpDelete, Cell: "blk"}, "fixed"},
		{"unknown op", Edit{Op: "swap", Cell: "a"}, "unknown op"},
	}
	for _, tc := range cases {
		if _, err := Apply(base, []Edit{tc.edit}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestApplyRejectsAliasingNames replays two edit batches whose insert
// names carry newlines. Had Apply taken them, both results would encode
// to the same canonical bytes, so one outcome-cache entry would serve two
// different layouts.
func TestApplyRejectsAliasingNames(t *testing.T) {
	base := &model.Layout{
		Name: "alias", NumSitesX: 16, NumRows: 8, RowHeight: 8,
		Cells: []model.Cell{{ID: 0, Name: "a", W: 1, H: 1}},
	}
	jobA := []Edit{{Op: OpInsert, Cell: "b 1 1 1 1 any 0\nc", GX: 2, GY: 2, W: 1, H: 1}}
	jobB := []Edit{
		{Op: OpDelete, Cell: "a"},
		{Op: OpInsert, Cell: "a 0 0 1 1 any 0\nb", GX: 1, GY: 1, W: 1, H: 1},
		{Op: OpInsert, Cell: "c", GX: 2, GY: 2, W: 1, H: 1},
	}
	for i, edits := range [][]Edit{jobA, jobB} {
		if _, err := Apply(base, edits); err == nil || !strings.Contains(err.Error(), "one flexpl field") {
			t.Errorf("job %d: err = %v, want a rejected cell name", i, err)
		}
	}
	// The layouts Apply used to build: different cells, one hash.
	cell := func(id int, name string, x, y int) model.Cell {
		return model.Cell{ID: id, Name: name, X: x, Y: y, GX: x, GY: y, W: 1, H: 1}
	}
	a := &model.Layout{Name: "alias", NumSitesX: 16, NumRows: 8, RowHeight: 8,
		Cells: []model.Cell{cell(0, "a", 0, 0), cell(1, jobA[0].Cell, 2, 2)}}
	b := &model.Layout{Name: "alias", NumSitesX: 16, NumRows: 8, RowHeight: 8,
		Cells: []model.Cell{cell(0, jobB[1].Cell, 1, 1), cell(1, "c", 2, 2)}}
	if reflect.DeepEqual(a, b) || Hash(a) != Hash(b) {
		t.Fatal("the aliasing pair no longer collides; the test no longer shows why names are checked")
	}
}

// TestApplyResultsRoundTrip: every layout Apply returns, under random edit
// batches over good and bad names, decodes from its canonical bytes to an
// equal layout that re-encodes to the same bytes, so its Hash addresses
// exactly that layout.
func TestApplyResultsRoundTrip(t *testing.T) {
	base := testLayout()
	base.Cells[1].X = 6 // a displaced cell: the nine-field form
	good := []string{"a", "b", "blk", "n1", "n2", "n3", "n#", "é", "\xff"}
	bad := []string{"x y", "#h", "t\tb", "nb\u00a0sp", "e\u2003m", "l\nb", ""}
	ops := []Op{OpMove, OpInsert, OpDelete}
	parities := []string{"", "any", "even", "odd"}
	rng := rand.New(rand.NewSource(1))
	applied := 0
	for i := 0; i < 3000; i++ {
		edits := make([]Edit, 1+rng.Intn(3))
		for k := range edits {
			name := good[rng.Intn(len(good))]
			if rng.Intn(4) == 0 {
				name = bad[rng.Intn(len(bad))]
			}
			edits[k] = Edit{
				Op: ops[rng.Intn(len(ops))], Cell: name,
				GX: rng.Intn(16), GY: rng.Intn(8), W: 1 + rng.Intn(2), H: 1 + rng.Intn(2),
				Parity: parities[rng.Intn(len(parities))],
			}
		}
		l, err := Apply(base, edits)
		if err != nil {
			continue
		}
		applied++
		var first, second bytes.Buffer
		if err := model.Encode(&first, l); err != nil {
			t.Fatal(err)
		}
		back, err := model.Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("edits %+v: canonical bytes do not decode: %v\n%s", edits, err, first.Bytes())
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("edits %+v: decoded layout differs from the applied one\n%s", edits, first.Bytes())
		}
		if err := model.Encode(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("edits %+v: re-encoding changed the bytes", edits)
		}
	}
	if applied < 300 {
		t.Fatalf("only %d of 3000 random batches applied; the generator no longer exercises Apply", applied)
	}
}

func TestHashTracksContent(t *testing.T) {
	base := testLayout()
	h1 := Hash(base)
	if h1 != Hash(testLayout()) {
		t.Fatal("equal layouts hash differently")
	}
	moved, err := Apply(base, []Edit{{Op: OpMove, Cell: "a", GX: 1, GY: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if Hash(moved) == h1 {
		t.Fatal("distinct layouts share a hash")
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}
}

func TestDirtySpansHaloClassification(t *testing.T) {
	base := testLayout()
	// Cell b sits at GY=5, H=2. A move within halo rows is local.
	spans, inHalo, err := DirtySpans(base, []Edit{{Op: OpMove, Cell: "b", GX: 0, GY: 6}}, 1)
	if err != nil || !inHalo {
		t.Fatalf("in-halo move: spans=%v inHalo=%t err=%v", spans, inHalo, err)
	}
	// Old span [5,7) and new span [6,8), each widened by 1.
	want := []Span{{Lo: 4, Hi: 8}, {Lo: 5, Hi: 9}}
	if len(spans) != 2 || spans[0] != want[0] || spans[1] != want[1] {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	// A jump beyond halo rows is classified out of halo but still spanned.
	_, inHalo, err = DirtySpans(base, []Edit{{Op: OpMove, Cell: "b", GX: 0, GY: 1}}, 1)
	if err != nil || inHalo {
		t.Fatalf("far move classified in halo (err=%v)", err)
	}
	// Inserts and deletes are always local to their own span.
	spans, inHalo, err = DirtySpans(base, []Edit{
		{Op: OpInsert, Cell: "n", GX: 0, GY: 3, W: 1, H: 2},
		{Op: OpDelete, Cell: "a"},
	}, 0)
	if err != nil || !inHalo {
		t.Fatalf("insert+delete: inHalo=%t err=%v", inHalo, err)
	}
	if len(spans) != 2 || spans[0] != (Span{Lo: 3, Hi: 5}) || spans[1] != (Span{Lo: 0, Hi: 1}) {
		t.Fatalf("spans = %v", spans)
	}
	if _, _, err := DirtySpans(base, []Edit{{Op: OpMove, Cell: "ghost"}}, 0); err == nil {
		t.Fatal("unknown cell accepted")
	}
}

func TestMarkDirtyCoversExactlyIntersectedBands(t *testing.T) {
	base := testLayout()
	plan, err := shard.PlanBands(base, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Bands) != 4 {
		t.Fatalf("got %d bands, want 4 (rows=%d)", len(plan.Bands), base.NumRows)
	}
	dirty := MarkDirty(plan, []Span{{Lo: 2, Hi: 4}})
	want := []bool{false, true, false, false} // bands are [0,2) [2,4) [4,6) [6,8)
	for i := range want {
		if dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}
	// A span touching a single row at a seam dirties only the band owning it.
	dirty = MarkDirty(plan, []Span{{Lo: 4, Hi: 5}})
	if dirty[1] || !dirty[2] {
		t.Fatalf("seam span dirty = %v", dirty)
	}
	// An empty span dirties nothing.
	for _, d := range MarkDirty(plan, []Span{{Lo: 3, Hi: 3}}) {
		if d {
			t.Fatal("empty span marked a band dirty")
		}
	}
}

func TestCodecRoundTripLayout(t *testing.T) {
	l := testLayout()
	key := LayoutKey(Hash(l))
	data, err := EncodeValue(key, l)
	if err != nil {
		t.Fatal(err)
	}
	v, size, err := DecodeValue(key, data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*model.Layout)
	if !ok || Hash(got) != Hash(l) {
		t.Fatalf("round trip changed the layout (ok=%t)", ok)
	}
	if size <= 0 {
		t.Fatalf("size = %d", size)
	}
	// A layout payload under a mismatched content address is rejected:
	// that is the disk cache's defense against renamed or grafted files.
	if _, _, err := DecodeValue(LayoutKey("0000"), data); err == nil {
		t.Fatal("hash-mismatched layout decoded")
	}
	if _, _, err := DecodeValue("outcome|x", data); err == nil {
		t.Fatal("layout payload accepted under an outcome key")
	}
}

func TestCodecRoundTripEntry(t *testing.T) {
	l := testLayout()
	e := &Entry{
		Engine: "flex", Options: "t=8",
		Bands: []BandOutcome{
			{InHash: "h0", Layout: l, Legal: true, ModeledSeconds: 0.5},
			{InHash: "h1", Layout: l, Legal: false, ModeledSeconds: 0.25},
		},
	}
	key := Key(Hash(l), e.Engine, e.Options, len(e.Bands), 2)
	data, err := EncodeValue(key, e)
	if err != nil {
		t.Fatal(err)
	}
	v, size, err := DecodeValue(key, data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*Entry)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if got.Engine != e.Engine || got.Options != e.Options {
		t.Fatalf("entry fields %+v", got)
	}
	if len(got.Bands) != 2 || got.Bands[0].InHash != "h0" || got.Bands[1].Legal ||
		got.Bands[1].ModeledSeconds != 0.25 || Hash(got.Bands[0].Layout) != Hash(l) {
		t.Fatalf("bands %+v", got.Bands)
	}
	if size < e.ApproxBytes()/2 {
		t.Fatalf("size %d implausible for entry of %d approx bytes", size, e.ApproxBytes())
	}
	// A band missing its input hash is corrupt: reuse would be unsound.
	bad := strings.Replace(string(data), `"inHash":"h0"`, `"inHash":""`, 1)
	if _, _, err := DecodeValue(key, []byte(bad)); err == nil {
		t.Fatal("entry with hashless band decoded")
	}
	if _, err := EncodeValue("k", 42); err == nil {
		t.Fatal("alien value encoded")
	}
	if _, _, err := DecodeValue(key, []byte(`{"kind":"woods"}`)); err == nil {
		t.Fatal("unknown payload kind decoded")
	}
	// An outcome entry always has a band; a stitched-only entry (the
	// pre-band format) is rejected and recomputed, never served.
	if _, _, err := DecodeValue(key, []byte(`{"kind":"outcome","engine":"flex","result":"flexpl 1"}`)); err == nil {
		t.Fatal("band-less outcome entry decoded")
	}
	if _, _, err := DecodeValue(LayoutKey(Hash(l)), data); err == nil {
		t.Fatal("outcome payload accepted under a layout key")
	}
}

func TestKeyShapes(t *testing.T) {
	k := Key("abc", "flex", "t=8", 4, 2)
	if k != "outcome|abc|flex|t=8|bands=4|halo=2" {
		t.Fatalf("Key = %q", k)
	}
	if LayoutKey("abc") != "layout|abc" {
		t.Fatalf("LayoutKey = %q", LayoutKey("abc"))
	}
	// Distinct decompositions must never alias.
	if Key("h", "e", "o", 4, 2) == Key("h", "e", "o", 8, 2) ||
		Key("h", "e", "o", 4, 2) == Key("h", "e", "o", 4, 1) {
		t.Fatal("keys alias across decompositions")
	}
}
