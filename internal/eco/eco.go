// Package eco is the substrate of the incremental (ECO) legalization path:
// content hashing of canonical layout bytes, the edit vocabulary that
// perturbs a placed design (move / insert / delete), and the cached-outcome
// entry format the service persists between requests (each band's step
// record, an mgl.Trail, stays in memory only).
//
// The correctness contract is hash-verification, not prediction: a band of
// the edited layout reuses a cached band outcome exactly when its canonical
// input bytes hash-match the bytes the cached outcome was computed from.
// Engines are pure functions of their input layout, so equal input bytes
// imply equal output bytes. The halo-based dirty prediction (DirtySpans,
// MarkDirty) decides nothing on the serving path; it serves only
// perfbench's eco.dirty_bands replay.
package eco

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"unicode"

	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/shard"
)

// Op names one kind of layout perturbation.
type Op string

// The edit vocabulary: reposition a movable cell, add a new movable cell,
// or remove a movable cell. Fixed cells (blockages, terminals) are part of
// the die contract and cannot be edited.
const (
	OpMove   Op = "move"
	OpInsert Op = "insert"
	OpDelete Op = "delete"
)

// Edit is one perturbation of a base layout. Move repositions the named
// cell's global-placement anchor to (GX, GY) — the current position follows
// the anchor, as for a freshly placed cell. Insert adds a movable cell named
// Cell of W×H sites/rows and the given parity at (GX, GY). Delete removes
// the named movable cell.
type Edit struct {
	// Op selects the perturbation kind (move, insert, delete).
	Op Op `json:"op"`
	// Cell names the target cell; insert requires a name unused by the
	// base layout that is one flexpl field: no white space, no leading #.
	Cell string `json:"cell"`
	// GX, GY is the new global-placement position (move, insert).
	GX int `json:"gx,omitempty"`
	GY int `json:"gy,omitempty"`
	// W, H is the inserted cell's size in sites × rows (insert only).
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
	// Parity is the inserted cell's power-rail requirement (insert only;
	// empty means any).
	Parity string `json:"parity,omitempty"`
}

// parseParity maps the flexpl parity token to the model constant.
func parseParity(s string) (model.PGParity, error) {
	switch s {
	case "", "any":
		return model.ParityAny, nil
	case "even":
		return model.ParityEven, nil
	case "odd":
		return model.ParityOdd, nil
	}
	return model.ParityAny, fmt.Errorf("eco: bad parity %q (want any, even, odd)", s)
}

// Apply returns a copy of base with the edits applied in order. The base
// layout is never mutated. It is an error to touch a fixed or unknown cell,
// to insert a duplicate or unnamed cell or one whose name is not a single
// flexpl field, or to place a cell outside the die.
func Apply(base *model.Layout, edits []Edit) (*model.Layout, error) {
	l := base.Clone()
	byName := make(map[string]int, len(l.Cells))
	for i := range l.Cells {
		byName[l.Cells[i].Name] = i
	}
	for ei, e := range edits {
		errf := func(format string, args ...any) error {
			return fmt.Errorf("eco: edit %d (%s %s): %s", ei, e.Op, e.Cell, fmt.Sprintf(format, args...))
		}
		switch e.Op {
		case OpMove:
			i, ok := byName[e.Cell]
			if !ok {
				return nil, errf("unknown cell")
			}
			c := &l.Cells[i]
			if c.Fixed {
				return nil, errf("cell is fixed")
			}
			if err := inDie(l, e.GX, e.GY, c.W, c.H); err != nil {
				return nil, errf("%v", err)
			}
			c.GX, c.GY = e.GX, e.GY
			c.X, c.Y = e.GX, e.GY
		case OpInsert:
			if e.Cell == "" {
				return nil, errf("insert needs a cell name")
			}
			if !flexplName(e.Cell) {
				return nil, errf("cell name must be one flexpl field: no white space, no leading #")
			}
			if _, ok := byName[e.Cell]; ok {
				return nil, errf("cell already exists")
			}
			if e.W <= 0 || e.H <= 0 {
				return nil, errf("non-positive size %dx%d", e.W, e.H)
			}
			p, err := parseParity(e.Parity)
			if err != nil {
				return nil, errf("%v", err)
			}
			if err := inDie(l, e.GX, e.GY, e.W, e.H); err != nil {
				return nil, errf("%v", err)
			}
			byName[e.Cell] = len(l.Cells)
			l.Cells = append(l.Cells, model.Cell{
				ID: len(l.Cells), Name: e.Cell,
				X: e.GX, Y: e.GY, GX: e.GX, GY: e.GY,
				W: e.W, H: e.H, Parity: p,
			})
		case OpDelete:
			i, ok := byName[e.Cell]
			if !ok {
				return nil, errf("unknown cell")
			}
			if l.Cells[i].Fixed {
				return nil, errf("cell is fixed")
			}
			l.Cells = append(l.Cells[:i], l.Cells[i+1:]...)
			// Renumber: cell IDs are indices into Cells.
			delete(byName, e.Cell)
			for j := i; j < len(l.Cells); j++ {
				l.Cells[j].ID = j
				byName[l.Cells[j].Name] = j
			}
		default:
			return nil, errf("unknown op (want move, insert, delete)")
		}
	}
	return l, nil
}

// flexplName reports whether name survives the flexpl codec as one cell
// name. Encode writes names verbatim, while Decode splits cell lines on
// Unicode white space and skips lines starting with #, so any other name
// would decode as different cells, or not at all, and two different
// layouts could share canonical bytes and so one Hash.
func flexplName(name string) bool {
	return name != "" && name[0] != '#' && strings.IndexFunc(name, unicode.IsSpace) < 0
}

// inDie checks that a W×H cell at (gx, gy) fits the die.
func inDie(l *model.Layout, gx, gy, w, h int) error {
	if gx < 0 || gy < 0 || gx+w > l.NumSitesX || gy+h > l.NumRows {
		return fmt.Errorf("position (%d,%d) size %dx%d outside %dx%d die", gx, gy, w, h, l.NumSitesX, l.NumRows)
	}
	return nil
}

// Hash returns the hex SHA-256 of the layout's canonical flexpl bytes — the
// content address every outcome-cache key and base handle is built from.
func Hash(l *model.Layout) string {
	h := sha256.New()
	// Encode to an in-memory hash never fails; a buffered writer over a
	// hash.Hash cannot return a write error.
	_ = model.Encode(h, l)
	return hex.EncodeToString(h.Sum(nil))
}

// Key builds the outcome-cache key for legalizing the layout with the given
// content hash under one engine/options configuration. The band count and
// halo are part of the key because the banded decomposition changes result
// bytes (seam displacement), so outcomes from different decompositions must
// never alias.
func Key(hash, engine, options string, bands, halo int) string {
	return fmt.Sprintf("outcome|%s|%s|%s|bands=%d|halo=%d", hash, engine, options, bands, halo)
}

// LayoutKey is the cache key an input layout is stored under, addressed by
// its own content hash; resolving a request's "base" handle is a lookup of
// this key.
func LayoutKey(hash string) string { return "layout|" + hash }

// BandOutcome is one band's legalization result inside an Entry.
type BandOutcome struct {
	// InHash is the content hash of the band's input layout; a future
	// request may reuse Layout only when its band input hash-matches.
	InHash string
	// Layout is the legalized band.
	Layout *model.Layout
	// Legal and ModeledSeconds are the engine's verdict and modeled
	// runtime for this band (Legal is not derivable from the layout
	// alone: engines also track placement failures).
	Legal          bool
	ModeledSeconds float64
	// Trail is the sealed step record of the run that produced Layout. A
	// later edit that re-runs this band replays from it, so only the
	// placement steps the edit reaches run again. A band served from the
	// cache keeps the trail of the run that produced it, and shares that
	// run's Layout. Nil when the band ran on a fleet worker or was loaded
	// from disk: a trail never goes to disk or over the wire. Entries
	// share trails and layouts, and each counts those it references in
	// its ApproxBytes.
	Trail *mgl.Trail
}

// Entry is one memoized legalization outcome, stored per band: the bands
// of a sharded run in band order, or the single band of an unsharded run
// (its whole input). There is no stitched copy — a sharded hit re-stitches
// from the bands — so a later edited request can splice fresh dirty bands
// into the cached clean ones, and an entry always has at least one band.
type Entry struct {
	// Engine and Options are the configuration component of the key,
	// echoed for integrity checks on disk load.
	Engine  string
	Options string
	// Bands is the per-band decomposition in band order.
	Bands []BandOutcome
}

// ApproxBytes estimates the entry's resident footprint for cache accounting.
func (e *Entry) ApproxBytes() int64 {
	var n int64 = 256
	for i := range e.Bands {
		n += 128 + int64(len(e.Bands[i].InHash))
		if e.Bands[i].Layout != nil {
			n += e.Bands[i].Layout.ApproxBytes()
		}
		n += e.Bands[i].Trail.ApproxBytes()
	}
	return n
}

// Span is an inclusive-exclusive row interval [Lo, Hi).
type Span struct {
	Lo, Hi int
}

// DirtySpans returns the halo-widened row spans an edit batch touches on
// base, and whether the batch is halo-local. A move is halo-local when its
// new row span stays within halo rows of its old span; inserts and deletes
// are always local to their own span. The spans cover both the old and new
// global-placement rows of every edited cell, each widened by halo rows, so
// every band whose ownership could have changed intersects a span.
func DirtySpans(base *model.Layout, edits []Edit, halo int) (spans []Span, inHalo bool, err error) {
	byName := make(map[string]int, len(base.Cells))
	for i := range base.Cells {
		byName[base.Cells[i].Name] = i
	}
	inHalo = true
	add := func(lo, hi int) {
		spans = append(spans, Span{Lo: lo - halo, Hi: hi + halo})
	}
	for ei, e := range edits {
		switch e.Op {
		case OpMove:
			i, ok := byName[e.Cell]
			if !ok {
				return nil, false, fmt.Errorf("eco: edit %d: unknown cell %q", ei, e.Cell)
			}
			c := &base.Cells[i]
			add(c.GY, c.GY+c.H)
			add(e.GY, e.GY+c.H)
			if e.GY < c.GY-halo || e.GY > c.GY+halo {
				inHalo = false
			}
		case OpInsert:
			add(e.GY, e.GY+max(e.H, 1))
		case OpDelete:
			i, ok := byName[e.Cell]
			if !ok {
				return nil, false, fmt.Errorf("eco: edit %d: unknown cell %q", ei, e.Cell)
			}
			c := &base.Cells[i]
			add(c.GY, c.GY+c.H)
		default:
			return nil, false, fmt.Errorf("eco: edit %d: unknown op %q", ei, e.Op)
		}
	}
	return spans, inHalo, nil
}

// MarkDirty flags every band of the plan that intersects a dirty span.
func MarkDirty(p *shard.Plan, spans []Span) []bool {
	dirty := make([]bool, len(p.Bands))
	for _, s := range spans {
		if s.Hi <= s.Lo { // empty interval intersects nothing
			continue
		}
		for i, b := range p.Bands {
			if s.Lo < b.HiRow && s.Hi > b.LoRow {
				dirty[i] = true
			}
		}
	}
	return dirty
}

// --- disk codec -----------------------------------------------------------
//
// The persistent outcome cache stores two value kinds: *Entry under
// outcome|… keys and *model.Layout under layout|… keys. Layouts embed as
// canonical flexpl text, so a file's bytes are decodable by any tool that
// speaks the exchange format and hash-verifiable against its own key.

type entryWire struct {
	Kind    string     `json:"kind"` // "outcome" or "layout"
	Engine  string     `json:"engine,omitempty"`
	Options string     `json:"options,omitempty"`
	Bands   []bandWire `json:"bands,omitempty"`
	Layout  string     `json:"layout,omitempty"`
}

type bandWire struct {
	InHash         string  `json:"inHash"`
	Layout         string  `json:"layout"`
	Legal          bool    `json:"legal"`
	ModeledSeconds float64 `json:"modeledSeconds"`
}

func layoutText(l *model.Layout) (string, error) {
	var buf bytes.Buffer
	if err := model.Encode(&buf, l); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func layoutFromText(s string) (*model.Layout, error) {
	return model.Decode(strings.NewReader(s))
}

// EncodeValue serializes an outcome-cache value (an *Entry or a
// *model.Layout, selected by the key's prefix) for the disk layer.
func EncodeValue(key string, v any) ([]byte, error) {
	switch val := v.(type) {
	case *model.Layout:
		text, err := layoutText(val)
		if err != nil {
			return nil, err
		}
		return json.Marshal(entryWire{Kind: "layout", Layout: text})
	case *Entry:
		w := entryWire{Kind: "outcome", Engine: val.Engine, Options: val.Options}
		for i := range val.Bands {
			b := &val.Bands[i]
			text, err := layoutText(b.Layout)
			if err != nil {
				return nil, err
			}
			w.Bands = append(w.Bands, bandWire{
				InHash: b.InHash, Layout: text,
				Legal: b.Legal, ModeledSeconds: b.ModeledSeconds,
			})
		}
		return json.Marshal(w)
	}
	return nil, fmt.Errorf("eco: cannot encode %T under key %q", v, key)
}

// DecodeValue parses bytes written by EncodeValue back into the cached
// value and its resident size, validating the payload kind against the
// key's prefix so a corrupted or mislabeled file is rejected, never served.
func DecodeValue(key string, data []byte) (any, int64, error) {
	var w entryWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, 0, err
	}
	if w.Kind == "layout" {
		if !strings.HasPrefix(key, "layout|") {
			return nil, 0, fmt.Errorf("eco: layout payload under key %q", key)
		}
		l, err := layoutFromText(w.Layout)
		if err != nil {
			return nil, 0, err
		}
		if h := Hash(l); LayoutKey(h) != key {
			return nil, 0, fmt.Errorf("eco: layout content hash %s does not match key %q", h, key)
		}
		return l, l.ApproxBytes(), nil
	}
	if w.Kind != "outcome" {
		return nil, 0, fmt.Errorf("eco: unknown payload kind %q", w.Kind)
	}
	if !strings.HasPrefix(key, "outcome|") {
		return nil, 0, fmt.Errorf("eco: outcome payload under key %q", key)
	}
	if len(w.Bands) == 0 {
		return nil, 0, fmt.Errorf("eco: outcome entry has no bands")
	}
	e := &Entry{Engine: w.Engine, Options: w.Options}
	for i := range w.Bands {
		b := &w.Bands[i]
		l, err := layoutFromText(b.Layout)
		if err != nil {
			return nil, 0, fmt.Errorf("eco: bad band %d layout: %w", i, err)
		}
		if b.InHash == "" {
			return nil, 0, fmt.Errorf("eco: band %d missing input hash", i)
		}
		e.Bands = append(e.Bands, BandOutcome{
			InHash: b.InHash, Layout: l,
			Legal: b.Legal, ModeledSeconds: b.ModeledSeconds,
		})
	}
	return e, e.ApproxBytes(), nil
}
