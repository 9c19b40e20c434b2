package experiments

import (
	"bytes"
	"context"
	"fmt"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/report"
	"github.com/flex-eda/flex/internal/shard"
)

// EcoPoint is one design's edit-stream measurement (the "Incremental
// legalization" extension; see docs/ARCHITECTURE.md): the design is
// legalized once in full across Bands row bands, then Edits independent
// in-halo cell moves are served two ways — incrementally (re-legalize only
// the dirty bands, splice the cached base outcome's clean bands) and as
// full re-runs — and the two must agree byte for byte.
type EcoPoint struct {
	Name  string
	Cells int // movable cells
	Rows  int // die height in rows
	Bands int // effective band count (the plan may clamp the request)
	Halo  int
	Edits int // edits actually served (bounded by eligible cells)
	Dirty int // bands re-legalized across the stream (the incremental work)
	// Match reports that every edit's incremental splice was byte-identical
	// to its full re-run — the correctness contract of the delta path. The
	// driver fails hard on a mismatch, so a rendered row always shows true.
	Match bool
	// FullModeled sums the modeled engine seconds of the full re-runs;
	// IncModeled those of the incremental dirty-band re-solves. Their ratio
	// is the edit stream's modeled speedup — the quantity the outcome cache
	// buys.
	FullModeled float64
	IncModeled  float64
	// Ops sums the FLEX engine's deterministic op counts across the
	// incremental re-solves — the benchjson trajectory record of the
	// incremental configuration.
	Ops benchjson.Ops
}

// Speedup returns the edit stream's modeled full/incremental ratio.
func (p EcoPoint) Speedup() float64 {
	if p.IncModeled > 0 {
		return p.FullModeled / p.IncModeled
	}
	return 0
}

// bandRun is one band's legalization outcome inside the eco driver.
type ecoBandRun struct {
	layout  *model.Layout
	seconds float64
	legal   bool
	ops     benchjson.Ops
}

// legalizeBands fans one FLEX job per listed band index through the pool
// (nil bands = all) and returns the per-band runs, indexed like bands.
func legalizeBands(opt Options, pool *batch.Pool, bands []*model.Layout, idx []int) ([]ecoBandRun, error) {
	if idx == nil {
		idx = make([]int, len(bands))
		for i := range idx {
			idx[i] = i
		}
	}
	jobs := make([]batch.Job[ecoBandRun], len(idx))
	for j, b := range idx {
		band := bands[b]
		jobs[j] = func(ctx context.Context) (ecoBandRun, error) {
			return runOnDevice(ctx, func() (ecoBandRun, error) {
				r := core.Legalize(band, core.Config{MeasureOriginalShift: opt.MeasureOriginal})
				return ecoBandRun{layout: r.Layout, seconds: r.TotalSeconds, legal: r.Legal, ops: flexOps(r)}, nil
			})
		}
	}
	results, st, err := batch.RunClassedOn(context.Background(), pool, jobs, nil, true, nil)
	if opt.Stats != nil {
		opt.Stats.Add(st)
	}
	if err != nil {
		return nil, err
	}
	out := make([]ecoBandRun, len(idx))
	for j, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("band %d: %w", idx[j], r.Err)
		}
		out[j] = r.Value
	}
	return out, nil
}

// interiorEdit picks a deterministic in-halo move inside band b of the
// plan: the first movable parity-free cell whose halo-expanded row span
// stays strictly inside the band (so exactly one band dirties), shifted
// horizontally. Returns ok = false when the band has no eligible cell.
func interiorEdit(l *model.Layout, p *shard.Plan, b int, used map[string]bool) (eco.Edit, bool) {
	band := p.Bands[b]
	for i := range l.Cells {
		c := &l.Cells[i]
		if c.Fixed || c.Parity != model.ParityAny || used[c.Name] {
			continue
		}
		if c.GY-p.Halo < band.LoRow || c.GY+c.H+p.Halo > band.HiRow {
			continue
		}
		gx := (c.GX + 7) % (l.NumSitesX - c.W + 1)
		return eco.Edit{Op: eco.OpMove, Cell: c.Name, GX: gx, GY: c.GY}, true
	}
	return eco.Edit{}, false
}

// Eco measures the incremental (ECO) legalization path over the (filtered,
// scaled) suite: per design, legalize the whole die once across bands row
// bands, then serve edits single-cell in-halo moves — each against the same
// base — both incrementally (dirty bands only, clean bands spliced from the
// base run) and as full re-runs. The two stitched results must be
// byte-identical per edit; any disagreement fails the driver. The modeled
// speedup is the full-stream cost over the incremental-stream cost.
func Eco(opt Options, bands, halo, edits int) ([]EcoPoint, error) {
	opt = opt.withDefaults()
	if bands < 1 {
		return nil, fmt.Errorf("eco: band count must be >= 1, got %d", bands)
	}
	if halo < 0 {
		halo = 0
	}
	if edits < 1 {
		return nil, fmt.Errorf("eco: edit count must be >= 1, got %d", edits)
	}
	suite := opt.suite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("eco: empty suite")
	}
	pool := opt.Pool
	if pool == nil {
		pool = batch.NewPool(batch.PoolConfig{Workers: opt.Workers, FPGAs: opt.FPGAs})
		defer pool.Close()
	}
	out := make([]EcoPoint, 0, len(suite))
	for _, spec := range suite {
		base, err := opt.generate(spec, opt.Scale)
		if err != nil {
			return nil, err
		}
		plan, err := shard.PlanBands(base, bands, halo)
		if err != nil {
			return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
		}
		baseBands, err := shard.Split(base, plan)
		if err != nil {
			return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
		}
		baseRuns, err := legalizeBands(opt, pool, baseBands, nil)
		if err != nil {
			return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
		}
		pt := EcoPoint{
			Name:  spec.Name,
			Cells: len(base.MovableIDs()),
			Rows:  base.NumRows,
			Bands: len(plan.Bands),
			Halo:  plan.Halo,
			Match: true,
			Ops:   benchjson.Ops{},
		}
		used := map[string]bool{}
		for e := 0; e < edits; e++ {
			edit, ok := interiorEdit(base, plan, e%len(plan.Bands), used)
			if !ok {
				// This band holds no eligible interior cell at this scale;
				// smaller streams still measure, they just say so.
				continue
			}
			used[edit.Cell] = true
			edited, err := eco.Apply(base, []eco.Edit{edit})
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			editedBands, err := shard.Split(edited, plan)
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			spans, inHalo, err := eco.DirtySpans(base, []eco.Edit{edit}, plan.Halo)
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			if !inHalo {
				return nil, fmt.Errorf("eco %s: interior edit classified out of halo", spec.Name)
			}
			var dirtyIdx []int
			for b, d := range eco.MarkDirty(plan, spans) {
				if d {
					dirtyIdx = append(dirtyIdx, b)
				}
			}
			// Hash-verify the splice the way the service does: a predicted-
			// clean band whose input changed would make reuse unsound.
			dirty := make(map[int]bool, len(dirtyIdx))
			for _, b := range dirtyIdx {
				dirty[b] = true
			}
			for b := range plan.Bands {
				if !dirty[b] && eco.Hash(editedBands[b]) != eco.Hash(baseBands[b]) {
					return nil, fmt.Errorf("eco %s: clean band %d changed under an interior edit", spec.Name, b)
				}
			}

			// Incremental: re-legalize the dirty bands, splice the rest.
			incRuns, err := legalizeBands(opt, pool, editedBands, dirtyIdx)
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			incLayouts := make([]*model.Layout, len(plan.Bands))
			for b := range plan.Bands {
				incLayouts[b] = baseRuns[b].layout
			}
			for j, b := range dirtyIdx {
				incLayouts[b] = incRuns[j].layout
				pt.IncModeled += incRuns[j].seconds
				pt.Ops.Add(incRuns[j].ops)
			}
			incStitched, err := shard.Stitch(edited, plan, incLayouts)
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}

			// Full re-run of the edited die, the baseline the splice must
			// reproduce exactly.
			fullRuns, err := legalizeBands(opt, pool, editedBands, nil)
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			fullLayouts := make([]*model.Layout, len(plan.Bands))
			for b := range plan.Bands {
				fullLayouts[b] = fullRuns[b].layout
				pt.FullModeled += fullRuns[b].seconds
			}
			fullStitched, err := shard.Stitch(edited, plan, fullLayouts)
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			var incBuf, fullBuf bytes.Buffer
			if err := model.Encode(&incBuf, incStitched); err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			if err := model.Encode(&fullBuf, fullStitched); err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			if !bytes.Equal(incBuf.Bytes(), fullBuf.Bytes()) {
				return nil, fmt.Errorf("eco %s edit %d: incremental result differs from full re-run", spec.Name, e)
			}
			pt.Edits++
			pt.Dirty += len(dirtyIdx)
		}
		if pt.Edits == 0 {
			return nil, fmt.Errorf("eco %s: no band holds an interior movable cell at scale %g; raise -scale or lower -eco-bands", spec.Name, opt.Scale)
		}
		if opt.Bench != nil {
			opt.Bench.Add(benchjson.Record{
				Design: pt.Name, Engine: "flex",
				Config: fmt.Sprintf("eco bands=%d halo=%d edits=%d", pt.Bands, pt.Halo, pt.Edits),
				Cells:  pt.Cells, Legal: pt.Match,
				ModeledSeconds: pt.IncModeled, Ops: pt.Ops,
			})
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderEco renders the edit-stream measurements. Every column is
// deterministic: modeled seconds, not wall clock, price the two paths.
func RenderEco(pts []EcoPoint) *report.Table {
	t := report.NewTable("Incremental (ECO) legalization: dirty-band re-solve vs full re-run",
		"Design", "Cells", "Rows", "Bands", "Halo", "Edits", "Dirty",
		"Match", "T_full(s)", "T_inc(s)", "Speedup")
	for _, p := range pts {
		t.Add(p.Name, fmt.Sprint(p.Cells), fmt.Sprint(p.Rows),
			fmt.Sprint(p.Bands), fmt.Sprint(p.Halo),
			fmt.Sprint(p.Edits), fmt.Sprint(p.Dirty), fmt.Sprint(p.Match),
			report.Secs(p.FullModeled), report.Secs(p.IncModeled),
			report.X(p.Speedup()))
	}
	return t
}
