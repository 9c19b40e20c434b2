package mgl_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/shard"
)

// The cases FuzzTrailReplayMatchesPlainRun builds on top of its edits.
const (
	caseEdits     = iota // the edits alone
	caseDie              // the run's die one site wider: replays nothing
	caseWindow           // the run's SlidingWindow differs: replays nothing
	caseDuplicate        // one run cell takes another's name
	caseSwap             // two paired run cells swap places: replays nothing
	caseUnrelated        // the source is another generated layout
	numCases
)

// FuzzTrailReplayMatchesPlainRun is the step replay's differential target.
// The fuzz input picks a small generated base (shape: cell count, density,
// band count 1–4 and the FLEX or MGL configuration; seed), a case and a
// script of 1–3 edits (see replayEdits). Each band of the base runs
// recording a trail, and the edited layout's band at the same index then
// runs replaying it and again with none. The two runs must agree in layout
// bytes, every Stats field (WorkSerial bit for bit), every TargetTrace in
// order and, under FLEX's configuration, every core.Result field; and the
// replaying run must make one step per target. The case may change the
// run's die or SlidingWindow, swap two paired cells or rename one, or
// record the trail on an unrelated layout on the same die; a changed die,
// window or cell order must replay nothing.
func FuzzTrailReplayMatchesPlainRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, kase uint8, seed int64, script []byte) {
		cells := 80 + 40*int(shape%8)
		density := 0.45 + 0.1*float64(shape/8%4)
		shards := 1 + int(shape/32)%4
		flexCfg := shape >= 128
		base, err := gen.Small(cells, density, seed).Generate(1)
		if err != nil {
			return
		}
		edits := replayEdits(t, base, shards, script)
		edited, err := eco.Apply(base, edits)
		if err != nil {
			t.Fatalf("script built invalid edits %+v: %v", edits, err)
		}
		src := base
		c := int(kase) % numCases
		if c == caseUnrelated {
			if src = unrelated(base, cells, density, seed); src == nil {
				return
			}
		}
		srcBands, runBands := bands(t, src, shards), bands(t, edited, shards)
		for b := range min(len(srcBands), len(runBands)) {
			run, none := mutate(runBands[b], srcBands[b], c, script)
			cfg := mgl.Config{}
			if flexCfg {
				cfg = mgl.Config{Streamed: true, SlidingWindow: 8}
			}
			runCfg := cfg
			if c == caseWindow {
				runCfg.SlidingWindow += 3
				none = true
			}
			label := fmt.Sprintf("edits %+v, case %d, band %d", edits, c, b)
			checkReplay(t, label, srcBands[b], run, cfg, runCfg, flexCfg, none)
		}
	})
}

// unrelated generates another layout of the given shape on base's die,
// each cell clamped into it, or returns nil when none generates.
func unrelated(base *model.Layout, cells int, density float64, seed int64) *model.Layout {
	l, err := gen.Small(cells, density, seed^0x5eed).Generate(1)
	if err != nil {
		return nil
	}
	l.NumSitesX, l.NumRows = base.NumSitesX, base.NumRows
	for i := range l.Cells {
		c := &l.Cells[i]
		c.W, c.H = min(c.W, l.NumSitesX), min(c.H, l.NumRows)
		c.X, c.GX = min(c.X, l.NumSitesX-c.W), min(c.GX, l.NumSitesX-c.W)
		c.Y, c.GY = min(c.Y, l.NumRows-c.H), min(c.GY, l.NumRows-c.H)
	}
	return l
}

// replayEdits decodes a fuzz script into 1–3 valid edits of base: the first
// byte picks the count, then each edit reads an op, a cell and a position.
// The ops move a cell anywhere on the die, move it just across the nearest
// seam of base's band plan (to the middle row when it has one band),
// insert a cell up to 4 sites by 7 rows, or delete a cell. A cell is
// edited at most once; a short script reads as zeros.
func replayEdits(t *testing.T, base *model.Layout, shards int, script []byte) []eco.Edit {
	t.Helper()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	plan, err := shard.PlanBands(base, shards, 2)
	if err != nil {
		t.Fatal(err)
	}
	movable := base.MovableIDs()
	n := 1 + next()%3
	edits := make([]eco.Edit, 0, n)
	used := make(map[string]bool)
	for i := 0; i < n; i++ {
		op, pick, x, y := next()%4, next()<<8|next(), next(), next()
		if op == 2 {
			w, h := 1+x%4, 1+y%7
			if h > base.NumRows {
				continue
			}
			edits = append(edits, eco.Edit{Op: eco.OpInsert, Cell: fmt.Sprintf("fz%d", i),
				GX: (x * 31) % (base.NumSitesX - w + 1), GY: y % (base.NumRows - h + 1), W: w, H: h})
			continue
		}
		if len(movable) == 0 {
			continue
		}
		c := base.Cells[movable[pick%len(movable)]]
		if used[c.Name] {
			continue
		}
		used[c.Name] = true
		gx, gy := (x*31)%(base.NumSitesX-c.W+1), y%(base.NumRows-c.H+1)
		switch op {
		case 1:
			gy = seamRow(plan, c)
		case 3:
			edits = append(edits, eco.Edit{Op: eco.OpDelete, Cell: c.Name})
			continue
		}
		edits = append(edits, eco.Edit{Op: eco.OpMove, Cell: c.Name, GX: gx, GY: gy})
	}
	return edits
}

// seamRow is the global row that puts c just across the nearest seam of
// the plan: into the band above its own, or below when it owns the top
// band, or the middle row of a one-band plan.
func seamRow(p *shard.Plan, c model.Cell) int {
	if len(p.Bands) == 1 {
		return max(0, min(p.NumRows-c.H, p.NumRows/2))
	}
	for b, band := range p.Bands {
		if c.GY >= band.HiRow {
			continue
		}
		if b+1 < len(p.Bands) {
			return min(band.HiRow, p.NumRows-c.H)
		}
		return max(0, band.LoRow-c.H)
	}
	return 0
}

// bands splits l as a job with Shards k and halo 2 does; one band is the
// whole layout.
func bands(t *testing.T, l *model.Layout, k int) []*model.Layout {
	t.Helper()
	if k == 1 {
		return []*model.Layout{l}
	}
	plan, err := shard.PlanBands(l, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := shard.Split(l, plan)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// mutate returns a copy of the run band changed by case c, and whether the
// change leaves the trail of src nothing to replay.
func mutate(run, src *model.Layout, c int, script []byte) (*model.Layout, bool) {
	run = run.Clone()
	pick := 0
	for _, b := range script {
		pick = pick*31 + int(b)
	}
	switch c {
	case caseDie:
		run.NumSitesX++
		return run, true
	case caseDuplicate:
		if n := len(run.Cells); n > 1 {
			i := pick % n
			run.Cells[(i+1)%n].Name = run.Cells[i].Name
		}
	case caseSwap:
		names := make(map[string]bool, len(src.Cells))
		for i := range src.Cells {
			names[src.Cells[i].Name] = true
		}
		var paired []int
		for i := range run.Cells {
			if names[run.Cells[i].Name] {
				paired = append(paired, i)
			}
		}
		if len(paired) > 1 {
			i := pick % len(paired)
			a, b := paired[i], paired[(i+1)%len(paired)]
			run.Cells[a], run.Cells[b] = run.Cells[b], run.Cells[a]
			run.Cells[a].ID, run.Cells[b].ID = a, b
			return run, true
		}
	}
	return run, false
}

// checkReplay records a trail on src under cfg, runs run under runCfg
// replaying it and again without one, and fails unless the two runs agree
// in everything they report, the replaying run made one step per target,
// and, when none is set, it replayed no step. Under FLEX's configuration
// it compares core.Legalize's results as well.
func checkReplay(t *testing.T, label string, src, run *model.Layout, cfg, runCfg mgl.Config, flexCfg, none bool) {
	t.Helper()
	rec := mgl.NewTrail(nil)
	cfg.Trail = rec
	mgl.Legalize(src, cfg)
	rec.Seal()

	var got, want []mgl.TargetTrace
	tr := mgl.NewTrail(rec)
	replayCfg, plainCfg := runCfg, runCfg
	replayCfg.Trail = tr
	replayCfg.TraceFn = func(x mgl.TargetTrace) { got = append(got, x) }
	plainCfg.TraceFn = func(x mgl.TargetTrace) { want = append(want, x) }
	sameResult(t, label, mgl.Legalize(run, replayCfg), mgl.Legalize(run, plainCfg))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the replaying run's traces differ from a plain run's", label)
	}
	if tr.Replayed()+tr.Ran() != len(want) {
		t.Fatalf("%s: %d steps replayed and %d ran for %d targets", label, tr.Replayed(), tr.Ran(), len(want))
	}
	if none && tr.Replayed() != 0 {
		t.Fatalf("%s: %d steps replayed, want none", label, tr.Replayed())
	}
	if !flexCfg {
		return
	}
	g := core.Legalize(run, core.Config{SlidingWindow: runCfg.SlidingWindow, Trail: mgl.NewTrail(rec)})
	w := core.Legalize(run, core.Config{SlidingWindow: runCfg.SlidingWindow})
	sameResult(t, label+" (FLEX)", g.Result, w.Result)
	gc, wc := *g, *w
	gc.Result, wc.Result = nil, nil
	if gc != wc {
		t.Fatalf("%s: FLEX results differ:\n%+v\n%+v", label, gc, wc)
	}
}

// sameResult fails unless got and want have the same layout bytes,
// metrics, verdict, violations and Stats, WorkSerial bit for bit.
func sameResult(t *testing.T, label string, got, want *mgl.Result) {
	t.Helper()
	var gb, wb bytes.Buffer
	if err := model.Encode(&gb, got.Layout); err != nil {
		t.Fatal(err)
	}
	if err := model.Encode(&wb, want.Layout); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: the replaying run's layout differs from a plain run's", label)
	}
	if got.Stats != want.Stats || math.Float64bits(got.Stats.WorkSerial) != math.Float64bits(want.Stats.WorkSerial) {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, got.Stats, want.Stats)
	}
	if got.Metrics != want.Metrics || got.Legal != want.Legal || !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("%s: metrics or verdict differ", label)
	}
}
