// Package experiments contains one driver per table and figure of the FLEX
// paper's evaluation (Sec. 5). Every driver runs the real engines on the
// synthetic IC/CAD 2017 suite at a configurable scale and returns the rows
// or series the paper reports; cmd/flexbench and bench_test.go render them.
//
// docs/ARCHITECTURE.md places the drivers in the system's pipeline;
// cmd/flexbench renders every driver from the command line.
package experiments

import (
	"fmt"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/cache"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/fpga"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/report"
)

// Options configures a driver run.
type Options struct {
	// Scale shrinks every design's cell count (1.0 = the paper's size).
	// The default 0.02 keeps a full-suite run in CI territory.
	Scale float64
	// Designs filters the suite by name; empty = all 16.
	Designs []string
	// MeasureOriginal instruments the original multi-pass shifting per
	// insertion point (slower, more faithful Normal-Pipeline cycle counts).
	// Only Fig8 reads it: no other driver's output depends on it.
	MeasureOriginal bool
	// Threads is the CPU baseline's thread count (0 = 8, the paper's).
	Threads int
	// Stats, when non-nil, accumulates every driver batch's pool
	// statistics — wall vs summed job wall (CPU overlap) and device
	// wait/hold/contention — so callers can report scheduling behaviour
	// without perturbing the deterministic tables.
	Stats *batch.Stats
	// Pool is the executor every driver batch runs on: workers, modeled
	// FPGA boards and admission control, shared so one flexbench
	// invocation keeps its workers and device history across drivers.
	// FLEX jobs hold one board for their device phase and serialize when
	// they outnumber boards; CPU-only jobs keep overlapping. Engines are
	// deterministic, so no pool shape changes a rendered table. nil runs
	// each batch on a throwaway default pool.
	Pool *batch.Pool
	// Priority stamps every driver job's scheduling class (flexbench's
	// -priority flag): on a shared pool, a whole flexbench run can be
	// demoted below (or promoted above) concurrent traffic. Sched's class
	// ladder is its experiment and keeps its own levels. Scheduling order
	// never changes a rendered table.
	Priority int
	// Layouts, when non-nil, memoizes generated layouts by (design, scale,
	// seed) across drivers and repeated runs, so shared designs are built
	// once per process instead of once per driver. Safe because engines
	// legalize clones; hit/miss accounting accumulates in the cache.
	Layouts *cache.LRU
	// Bench, when non-nil, receives one benchjson.Record per measured
	// (design, engine, config) outcome — the persistent perf-trajectory
	// sink behind flexbench -bench-out. Records are appended after the
	// driver's batch completes, in deterministic suite × engine order, and
	// contain only deterministic facts (op counts, modeled seconds,
	// quality), so the serialized file is byte-stable across runs. Only
	// the Table1, Sharded, Sched and Eco drivers record; see
	// docs/BENCHMARKING.md for the schema.
	Bench *benchjson.Experiment
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.Threads == 0 {
		o.Threads = 8
	}
	return o
}

func (o Options) suite() []gen.Spec {
	all := gen.ICCAD2017()
	if len(o.Designs) == 0 {
		return all
	}
	// The superblue-scale designs join only by explicit name: they are two
	// orders of magnitude bigger than the contest suite and must never be
	// swept into a default full-suite run.
	all = append(all, gen.Superblue()...)
	want := map[string]bool{}
	for _, n := range o.Designs {
		want[n] = true
	}
	var out []gen.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// EngineCell is one engine's outcome on one design. AveDis, Seconds and
// Legal are the rendered columns; MaxDis, Ops and Modeled are the extra
// deterministic facts the benchjson trajectory persists (they never reach
// the rendered table, so adding them cannot move stdout).
type EngineCell struct {
	AveDis  float64
	Seconds float64
	Legal   bool
	MaxDis  float64
	Ops     benchjson.Ops
	Modeled *benchjson.Breakdown // FLEX engine only
}

// Table1Row mirrors one row of the paper's Table 1.
type Table1Row struct {
	Name    string
	Cells   int
	Density float64
	MGL     EngineCell // TCAD'22 multi-threaded CPU baseline
	Date    EngineCell // DATE'22 CPU-GPU baseline
	Ispd    EngineCell // ISPD'25 analytical baseline
	Flex    EngineCell // this work
	AccT    float64    // Flex speedup vs MGL
	AccD    float64    // Flex speedup vs DATE'22
	AccI    float64    // Flex speedup vs ISPD'25
}

// table1Engines orders the four Table-1 engine columns: Table1Row.MGL,
// Date, Ispd and Flex.
var table1Engines = [...]engine.Kind{engine.MGLMT, engine.GPU, engine.Analytical, engine.FLEX}

// Table1 runs all four engines over the (filtered, scaled) suite, fanning
// one job per (design × engine) pair across the worker pool. Each design is
// generated lazily, exactly once, and the layout shared by its four engine
// jobs — engines legalize clones.
func Table1(opt Options) ([]Table1Row, error) {
	opt = opt.withDefaults()
	suite := opt.suite()
	layouts := lazyLayouts(opt, suite, opt.Scale)
	jobs := make([]batch.Job[EngineCell], 0, len(suite)*len(table1Engines))
	for _, layout := range layouts {
		for _, kind := range table1Engines {
			jobs = append(jobs, engineJob(layout, kind, engine.Options{Threads: opt.Threads},
				func(r *engine.Result) EngineCell {
					return EngineCell{AveDis: r.Metrics.AveDis, Seconds: r.ModeledSeconds, Legal: r.Legal,
						MaxDis: r.Metrics.MaxDis, Ops: r.Ops(), Modeled: r.Breakdown()}
				}))
		}
	}
	cells, err := values(opt, jobs)
	if err != nil {
		return nil, fmt.Errorf("table1 %w", err)
	}
	rows := make([]Table1Row, len(suite))
	for i, spec := range suite {
		l, err := layouts[i]() // memoized: generated by this design's jobs
		if err != nil {
			return nil, fmt.Errorf("table1 %w", err)
		}
		d := cells[i*len(table1Engines) : (i+1)*len(table1Engines)]
		row := Table1Row{
			Name: spec.Name, Cells: len(l.MovableIDs()), Density: l.Density(),
			MGL: d[0], Date: d[1], Ispd: d[2], Flex: d[3],
		}
		if row.Flex.Seconds > 0 {
			row.AccT = row.MGL.Seconds / row.Flex.Seconds
			row.AccD = row.Date.Seconds / row.Flex.Seconds
			row.AccI = row.Ispd.Seconds / row.Flex.Seconds
		}
		rows[i] = row
		if opt.Bench == nil {
			continue
		}
		for k, kind := range table1Engines {
			e, _ := engine.Lookup(kind) // a table kind: never fails
			config := ""
			if kind == engine.MGLMT {
				config = fmt.Sprintf("threads=%d", opt.Threads)
			}
			opt.Bench.Add(benchjson.Record{
				Design: row.Name, Engine: e.Name, Config: config,
				Cells: row.Cells, Legal: d[k].Legal,
				AveDis: d[k].AveDis, MaxDis: d[k].MaxDis,
				ModeledSeconds: d[k].Seconds,
				Modeled:        d[k].Modeled, Ops: d[k].Ops,
			})
		}
	}
	return rows, nil
}

// RenderTable1 formats Table-1 rows like the paper.
func RenderTable1(rows []Table1Row) *report.Table {
	t := report.NewTable("Table 1: result comparison on the synthetic IC/CAD 2017 suite",
		"Benchmark", "Cell#", "Den.(%)",
		"MGL AveDis", "MGL T(s)",
		"DATE AveDis", "DATE T(s)",
		"ISPD AveDis", "ISPD T(s)",
		"FLEX AveDis", "FLEX T(s)",
		"Acc(T)", "Acc(D)", "Acc(I)")
	var sum Table1Row
	for _, r := range rows {
		t.Add(r.Name, fmt.Sprint(r.Cells), report.F(r.Density*100, 1),
			report.F(r.MGL.AveDis, 3), report.Secs(r.MGL.Seconds),
			report.F(r.Date.AveDis, 3), report.Secs(r.Date.Seconds),
			report.F(r.Ispd.AveDis, 3), report.Secs(r.Ispd.Seconds),
			report.F(r.Flex.AveDis, 3), report.Secs(r.Flex.Seconds),
			report.X(r.AccT), report.X(r.AccD), report.X(r.AccI))
		sum.MGL.AveDis += r.MGL.AveDis
		sum.MGL.Seconds += r.MGL.Seconds
		sum.Date.AveDis += r.Date.AveDis
		sum.Date.Seconds += r.Date.Seconds
		sum.Ispd.AveDis += r.Ispd.AveDis
		sum.Ispd.Seconds += r.Ispd.Seconds
		sum.Flex.AveDis += r.Flex.AveDis
		sum.Flex.Seconds += r.Flex.Seconds
		sum.AccT += r.AccT
		sum.AccD += r.AccD
		sum.AccI += r.AccI
	}
	if n := float64(len(rows)); n > 0 {
		t.Add("Average", "", "",
			report.F(sum.MGL.AveDis/n, 3), report.Secs(sum.MGL.Seconds/n),
			report.F(sum.Date.AveDis/n, 3), report.Secs(sum.Date.Seconds/n),
			report.F(sum.Ispd.AveDis/n, 3), report.Secs(sum.Ispd.Seconds/n),
			report.F(sum.Flex.AveDis/n, 3), report.Secs(sum.Flex.Seconds/n),
			report.X(sum.AccT/n), report.X(sum.AccD/n), report.X(sum.AccI/n))
		if sum.Flex.AveDis > 0 {
			t.Add("Ratio", "", "",
				report.F(sum.MGL.AveDis/sum.Flex.AveDis, 2), report.X(sum.MGL.Seconds/sum.Flex.Seconds),
				report.F(sum.Date.AveDis/sum.Flex.AveDis, 2), report.X(sum.Date.Seconds/sum.Flex.Seconds),
				report.F(sum.Ispd.AveDis/sum.Flex.AveDis, 2), report.X(sum.Ispd.Seconds/sum.Flex.Seconds),
				"1.00", "1.0x", "", "", "")
		}
	}
	return t
}

// Table2 renders the FPGA resource table.
func Table2() *report.Table {
	t := report.NewTable("Table 2: hardware resource consumption on FPGA",
		"Configuration", "LUTs", "FFs", "BRAMs", "DSPs")
	one := fpga.Estimate(1)
	two := fpga.Estimate(2)
	t.Add("No parallelism of FOP PE", fmt.Sprint(one.LUTs), fmt.Sprint(one.FFs), fmt.Sprint(one.BRAMs), fmt.Sprint(one.DSPs))
	t.Add("2 parallelism of FOP PE", fmt.Sprint(two.LUTs), fmt.Sprint(two.FFs), fmt.Sprint(two.BRAMs), fmt.Sprint(two.DSPs))
	t.Add("Available", fmt.Sprint(fpga.AlveoU50.LUTs), fmt.Sprint(fpga.AlveoU50.FFs), fmt.Sprint(fpga.AlveoU50.BRAMs), fmt.Sprint(fpga.AlveoU50.DSPs))
	return t
}

// traceDesign runs the FLEX-configured sequential flow once and returns the
// per-region FPGA traces plus the final run result.
func traceDesign(l *model.Layout, measureOriginal bool) ([]fpga.Trace, *mgl.Result) {
	var traces []fpga.Trace
	cfg := mgl.Config{
		Streamed:             true,
		SlidingWindow:        8,
		MeasureOriginalShift: measureOriginal,
		TraceFn: func(tt mgl.TargetTrace) {
			traces = append(traces, fpga.TraceFromFOP(tt.FOP, int(tt.CommitMoved)))
		},
	}
	res := mgl.Legalize(l, cfg)
	return traces, res
}

func sumCycles(cfg fpga.PEConfig, traces []fpga.Trace) float64 {
	var total float64
	for _, tr := range traces {
		total += cfg.RegionCycles(tr)
	}
	return total
}
