// Package engine is the one table of the reproduction's legalizers: the
// paper's FLEX accelerator, the sequential MGL reference and the three
// baselines of Table 1. Each entry holds the engine's canonical name, its
// Table 1 label, whether it holds a modeled FPGA board while it runs, and
// a run function that prices the result in modeled seconds. The public
// API, the service's executor and the experiment drivers all run engines
// through Run, so an engine's configuration and pricing live here alone.
package engine

import (
	"context"
	"fmt"

	"github.com/flex-eda/flex/internal/analytical"
	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/fpga"
	"github.com/flex-eda/flex/internal/gpu"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/perf"
)

// Kind selects an engine. Its values are flex.Engine's.
type Kind int

// The engines, in table order.
const (
	FLEX Kind = iota
	MGL
	MGLMT
	GPU
	Analytical
)

// Options tunes a run; the zero value picks the paper's defaults. It has
// flex.Options' fields in the same order, so the public type converts to
// it and the compiler keeps the two in step.
type Options struct {
	Threads       int  // MGL-MT's worker count (default 8)
	SlidingWindow int  // FLEX's ordering window (default 8; negative disables the density reordering)
	OnePE         bool // FLEX on a single FOP PE instead of two
	OffloadInsert bool // FLEX with step e) on the FPGA as well (Fig. 10)
}

// Result is one finished run.
type Result struct {
	Layout         *model.Layout
	Metrics        model.Metrics
	Legal          bool
	Violations     []model.Violation
	ModeledSeconds float64

	ops       func() benchjson.Ops
	breakdown func() *benchjson.Breakdown
}

// Ops flattens the run's deterministic op counters into the BENCH_*.json
// form. The map is built on each call, so a caller that never records —
// the serving path — never builds one.
func (r *Result) Ops() benchjson.Ops { return r.ops() }

// Breakdown is FLEX's modeled time split, built on each call like Ops; nil
// for the other engines.
func (r *Result) Breakdown() *benchjson.Breakdown {
	if r.breakdown == nil {
		return nil
	}
	return r.breakdown()
}

// Entry is one engine of the table.
type Entry struct {
	// Name is the canonical name CLI flags, the fleet wire and BENCH
	// records use.
	Name string
	// Label names the engine as in the paper's Table 1.
	Label string
	// FPGA reports that the engine holds a modeled board for its run; the
	// other engines are priced host-side and overlap freely.
	FPGA bool
	run  func(l *model.Layout, o Options) *Result
}

// table has one entry per Kind, indexed by it.
var table = [...]Entry{
	FLEX:       {Name: "flex", Label: "FLEX", FPGA: true, run: runFLEX},
	MGL:        {Name: "mgl", Label: "MGL", run: runMGL},
	MGLMT:      {Name: "mgl-mt", Label: "TCAD'22-MGL", run: runMGLMT},
	GPU:        {Name: "gpu", Label: "DATE'22", run: runGPU},
	Analytical: {Name: "analytical", Label: "ISPD'25", run: runAnalytical},
}

// Lookup returns k's entry. An unknown kind fails with the public API's
// error text.
func Lookup(k Kind) (Entry, error) {
	if k < 0 || int(k) >= len(table) {
		return Entry{}, fmt.Errorf("flex: unknown engine %d", int(k))
	}
	return table[k], nil
}

// Names lists the canonical names in table order, FLEX first.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Parse maps a canonical name to its kind.
func Parse(name string) (Kind, bool) {
	for i, e := range table {
		if e.Name == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Run legalizes a clone of l with k's engine. An engine that needs the FPGA
// holds one modeled board of ctx's pool for the run (free outside a pool);
// a canceled ctx starts no engine.
func Run(ctx context.Context, k Kind, l *model.Layout, o Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := Lookup(k)
	if err != nil {
		return nil, err
	}
	if e.FPGA {
		release, err := batch.AcquireDevice(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	return e.run(l, o), nil
}

func runFLEX(l *model.Layout, o Options) *Result {
	cfg := core.Config{SlidingWindow: o.SlidingWindow}
	if o.OnePE {
		cfg.PE = fpga.PEConfig{Pipeline: fpga.MultiGranularity, SACS: fpga.SACSParal, NumPE: 1}
	}
	if o.OffloadInsert {
		cfg.Assignment = core.FOPAndInsertOnFPGA
	}
	r := core.Legalize(l, cfg)
	return &Result{
		Layout: r.Layout, Metrics: r.Metrics, Legal: r.Legal, Violations: r.Violations,
		ModeledSeconds: r.TotalSeconds,
		ops:            func() benchjson.Ops { return flexOps(r) },
		breakdown:      func() *benchjson.Breakdown { return flexBreakdown(r) },
	}
}

func runMGL(l *model.Layout, _ Options) *Result {
	r := mgl.Legalize(l, mgl.Config{})
	return &Result{
		Layout: r.Layout, Metrics: r.Metrics, Legal: r.Legal, Violations: r.Violations,
		ModeledSeconds: perf.DefaultCPU.Seconds(r.Stats.WorkSerial),
		ops:            func() benchjson.Ops { return mglOps(r.Stats) },
	}
}

func runMGLMT(l *model.Layout, o Options) *Result {
	threads := o.Threads
	if threads == 0 {
		threads = 8
	}
	r := mgl.Legalize(l, mgl.Config{Threads: threads})
	st := &r.Stats
	return &Result{
		Layout: r.Layout, Metrics: r.Metrics, Legal: r.Legal, Violations: r.Violations,
		ModeledSeconds: perf.DefaultCPU.ParallelSeconds(st.WorkSerial, st.WorkCritical, int(st.Batches), threads),
		ops:            func() benchjson.Ops { return mglOps(r.Stats) },
	}
}

func runGPU(l *model.Layout, _ Options) *Result {
	r := gpu.Legalize(l, gpu.Config{})
	return &Result{
		Layout: r.Layout, Metrics: r.Metrics, Legal: r.Legal, Violations: r.Violations,
		ModeledSeconds: r.TotalSeconds,
		ops:            func() benchjson.Ops { return gpuOps(r) },
	}
}

func runAnalytical(l *model.Layout, _ Options) *Result {
	r := analytical.Legalize(l, analytical.Config{})
	return &Result{
		Layout: r.Layout, Metrics: r.Metrics, Legal: r.Legal, Violations: r.Violations,
		ModeledSeconds: r.TotalSeconds,
		ops:            func() benchjson.Ops { return analyticalOps(r) },
	}
}
