package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/report"
	"github.com/flex-eda/flex/internal/shard"
)

// ShardedPoint is one design's row-band sharded legalization run (the
// "Sharded full-scale runs" extension; see docs/ARCHITECTURE.md): the
// design is split into Bands horizontal row bands, each band legalized by
// the FLEX engine as an independent pool job, and the bands stitched back
// into one whole-die layout whose quality is measured against the original
// global placement.
type ShardedPoint struct {
	Name  string
	Cells int // movable cells
	Rows  int // die height in rows
	Bands int // effective band count (the plan may clamp the request)
	Halo  int
	Legal bool // the stitched whole-die layout checks clean
	// AveDis/MaxDis are measured on the stitched layout against the
	// original global placement — boundary clamping included, so sharded
	// quality is comparable to an unsharded run of the same design.
	AveDis float64
	MaxDis float64
	// ModeledMax is the slowest band's modeled engine seconds — the modeled
	// wall of a fully parallel sharded run; ModeledSum is the summed band
	// time, the serial cost the sharding amortizes. Their ratio is the
	// modeled shard parallelism.
	ModeledMax float64
	ModeledSum float64
	// Per-band observations, band order. BandCells counts each band's
	// movable cells (deterministic); BandWall and BandWait are the bands'
	// wall clocks and modeled-board queue times (scheduling-dependent —
	// stderr material, never rendered into the table).
	BandCells []int
	BandWall  []time.Duration
	BandWait  []time.Duration
	// Ops sums the FLEX engine's deterministic op counts across the bands
	// — the benchjson trajectory record for the sharded configuration.
	Ops benchjson.Ops
}

// Sharded runs the row-band sharding path over the (filtered, scaled)
// suite: per design, plan/split into shards bands with the given halo, fan
// one FLEX-engine job per band through the worker pool (each band holds a
// modeled board for its engine phase), stitch, and measure the whole-die
// result. Designs run one after another so only one design's bands are
// resident at a time — the memory shape that lets paper-scale superblue
// runs fit. Superblue designs join the suite by explicit Options.Designs
// name.
func Sharded(opt Options, shards, halo int) ([]ShardedPoint, error) {
	opt = opt.withDefaults()
	if shards < 1 {
		return nil, fmt.Errorf("sharded: shard count must be >= 1, got %d", shards)
	}
	if halo < 0 {
		halo = 0
	}
	suite := opt.suite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("sharded: empty suite")
	}
	pool := opt.Pool
	if pool == nil {
		pool = batch.NewPool(batch.PoolConfig{Workers: opt.Workers, FPGAs: opt.FPGAs})
		defer pool.Close()
	}
	out := make([]ShardedPoint, 0, len(suite))
	for _, spec := range suite {
		l, err := opt.generate(spec, opt.Scale)
		if err != nil {
			return nil, err
		}
		plan, err := shard.PlanBands(l, shards, halo)
		if err != nil {
			return nil, fmt.Errorf("sharded %s: %w", spec.Name, err)
		}
		bands, err := shard.Split(l, plan)
		if err != nil {
			return nil, fmt.Errorf("sharded %s: %w", spec.Name, err)
		}
		type bandRun struct {
			layout  *model.Layout
			seconds float64
			legal   bool
			ops     benchjson.Ops
		}
		jobs := make([]batch.Job[bandRun], len(bands))
		for b := range bands {
			band := bands[b]
			jobs[b] = func(ctx context.Context) (bandRun, error) {
				// Every band streams through the shared board like any
				// other FLEX-engine job.
				return runOnDevice(ctx, func() (bandRun, error) {
					r := core.Legalize(band, core.Config{MeasureOriginalShift: opt.MeasureOriginal})
					return bandRun{layout: r.Layout, seconds: r.TotalSeconds, legal: r.Legal, ops: flexOps(r)}, nil
				})
			}
		}
		results, st, err := batch.RunClassedOn(context.Background(), pool, jobs, nil, true, nil)
		if opt.Stats != nil {
			opt.Stats.Add(st)
		}
		if err != nil {
			return nil, fmt.Errorf("sharded %s: %w", spec.Name, err)
		}
		pt := ShardedPoint{
			Name:  spec.Name,
			Cells: len(l.MovableIDs()),
			Rows:  l.NumRows,
			Bands: len(bands),
			Halo:  halo,
			Legal: true,
			Ops:   benchjson.Ops{},
		}
		legalized := make([]*model.Layout, len(bands))
		for b, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("sharded %s band %d: %w", spec.Name, b, r.Err)
			}
			run := r.Value
			legalized[b] = run.layout
			if !run.legal {
				pt.Legal = false
			}
			pt.ModeledSum += run.seconds
			if run.seconds > pt.ModeledMax {
				pt.ModeledMax = run.seconds
			}
			pt.BandCells = append(pt.BandCells, plan.Bands[b].Movable)
			pt.BandWall = append(pt.BandWall, r.Wall)
			pt.BandWait = append(pt.BandWait, r.DeviceWait)
			pt.Ops.Add(run.ops)
		}
		stitched, err := shard.Stitch(l, plan, legalized)
		if err != nil {
			return nil, fmt.Errorf("sharded %s: %w", spec.Name, err)
		}
		if len(stitched.Check(1)) > 0 {
			pt.Legal = false
		}
		m := model.Measure(stitched)
		pt.AveDis, pt.MaxDis = m.AveDis, m.MaxDis
		if opt.Bench != nil {
			// ModeledSum is the record's time: the serial cost of all
			// bands, the quantity the op counts price. ModeledMax (the
			// parallel wall) is recoverable from per-run stderr.
			opt.Bench.Add(benchjson.Record{
				Design: pt.Name, Engine: "flex",
				Config: fmt.Sprintf("bands=%d halo=%d", pt.Bands, pt.Halo),
				Cells:  pt.Cells, Legal: pt.Legal,
				AveDis: pt.AveDis, MaxDis: pt.MaxDis,
				ModeledSeconds: pt.ModeledSum, Ops: pt.Ops,
			})
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderSharded renders the sharded runs. Only deterministic columns go to
// the table — per-band walls and waits are scheduling observations and stay
// on stderr.
func RenderSharded(pts []ShardedPoint) *report.Table {
	t := report.NewTable("Sharded full-scale runs: row-band decomposition, FLEX engine per band",
		"Design", "Cells", "Rows", "Bands", "Halo", "Legal",
		"AveDis", "MaxDis", "T_par(s)", "T_sum(s)", "Par")
	for _, p := range pts {
		par := 0.0
		if p.ModeledMax > 0 {
			par = p.ModeledSum / p.ModeledMax
		}
		t.Add(p.Name, fmt.Sprint(p.Cells), fmt.Sprint(p.Rows),
			fmt.Sprint(p.Bands), fmt.Sprint(p.Halo), fmt.Sprint(p.Legal),
			report.F(p.AveDis, 3), report.F(p.MaxDis, 3),
			report.Secs(p.ModeledMax), report.Secs(p.ModeledSum), report.X(par))
	}
	return t
}
