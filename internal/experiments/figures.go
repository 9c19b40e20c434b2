package experiments

import (
	"fmt"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/fpga"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/perf"
	"github.com/flex-eda/flex/internal/report"
)

// ThreadPoint is one bar of Fig. 2(a): multi-threaded CPU scaling.
type ThreadPoint struct {
	Threads int
	Seconds float64
	Speedup float64 // vs 1 thread
}

// fig2aThreads are the thread counts of the paper's Fig. 2(a) sweep.
var fig2aThreads = []int{1, 2, 4, 8, 10}

// Fig2a measures the multi-threaded CPU baseline at 1/2/4/8/10 threads on
// the first selected design (saturation behaviour, Fig. 2(a)), one job per
// thread count sharing the design's layout — engines legalize clones.
func Fig2a(opt Options) ([]ThreadPoint, error) {
	opt = opt.withDefaults()
	suite := opt.suite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("fig2a: empty suite")
	}
	l, err := opt.generate(suite[0], opt.Scale)
	if err != nil {
		return nil, err
	}
	jobs := make([]flex.BatchJob, len(fig2aThreads))
	for i, th := range fig2aThreads {
		// One thread is the sequential MGL reference; more run the
		// multi-threaded baseline.
		e := flex.EngineMGLMT
		if th == 1 {
			e = flex.EngineMGL
		}
		jobs[i] = opt.job(l, e, flex.Options{Threads: th})
	}
	results, _, err := opt.submit(jobs)
	if err != nil {
		return nil, err
	}
	base := results[0].Outcome.ModeledSeconds
	out := make([]ThreadPoint, len(fig2aThreads))
	for i, th := range fig2aThreads {
		secs := results[i].Outcome.ModeledSeconds
		out[i] = ThreadPoint{Threads: th, Seconds: secs, Speedup: base / secs}
	}
	return out, nil
}

// RenderFig2a renders the thread-scaling series.
func RenderFig2a(pts []ThreadPoint) *report.Series {
	s := report.NewSeries("Fig. 2(a): multi-threaded CPU legalization speedup vs threads")
	for _, p := range pts {
		s.Add(fmt.Sprintf("%dT", p.Threads), p.Speedup)
	}
	return s
}

// SyncPoint is one bar of Fig. 2(b): GPU sync share on superblue designs.
type SyncPoint struct {
	Name      string
	SyncShare float64
}

// Fig2b measures the CPU-GPU baseline's synchronization share on the
// superblue-scale designs.
func Fig2b(opt Options) ([]SyncPoint, error) {
	opt = opt.withDefaults()
	// Superblue designs are huge; scale them harder.
	return perSpec(opt, gen.Superblue(), opt.Scale/4, func(spec gen.Spec, l *model.Layout) (SyncPoint, error) {
		res := mgl.LegalizeGPU(l, mgl.GPUConfig{})
		return SyncPoint{Name: spec.Name, SyncShare: res.GPU.SyncShare(res.TotalSeconds)}, nil
	})
}

// RenderFig2b renders the sync-share series.
func RenderFig2b(pts []SyncPoint) *report.Series {
	s := report.NewSeries("Fig. 2(b): GPU legalizer data synchronization share of runtime")
	for _, p := range pts {
		s.Add(p.Name, p.SyncShare)
	}
	return s
}

// ParallelismPoint is one row of Fig. 2(c): achievable region-level
// parallelism vs the device's CUDA cores.
type ParallelismPoint struct {
	Name      string
	MaxBatch  int
	AvgBatch  float64
	CUDACores int
}

// Fig2c measures the maximum kernel batch size of the CPU-GPU baseline.
func Fig2c(opt Options) ([]ParallelismPoint, error) {
	opt = opt.withDefaults()
	return perSpec(opt, gen.Superblue(), opt.Scale/4, func(spec gen.Spec, l *model.Layout) (ParallelismPoint, error) {
		res := mgl.LegalizeGPU(l, mgl.GPUConfig{BatchMax: 4096, Lookahead: 8192})
		avg := 0.0
		if res.GPU.Rounds > 0 {
			avg = float64(res.GPU.BatchSum) / float64(res.GPU.Rounds)
		}
		return ParallelismPoint{
			Name: spec.Name, MaxBatch: res.GPU.MaxBatch, AvgBatch: avg,
			CUDACores: mgl.CUDACores,
		}, nil
	})
}

// RenderFig2c renders the parallelism table.
func RenderFig2c(pts []ParallelismPoint) *report.Table {
	t := report.NewTable("Fig. 2(c): max parallel regions vs CUDA cores",
		"Design", "MaxBatch", "AvgBatch", "CUDA cores")
	for _, p := range pts {
		t.Add(p.Name, fmt.Sprint(p.MaxBatch), report.F(p.AvgBatch, 1), fmt.Sprint(p.CUDACores))
	}
	return t
}

// ShiftSharePoint is one bar of Fig. 2(g): cell shifting's share of FOP.
type ShiftSharePoint struct {
	Name       string
	ShiftShare float64
}

// Fig2g measures the fraction of FOP work spent in cell shifting on the
// software (CPU) implementation.
func Fig2g(opt Options) ([]ShiftSharePoint, error) {
	opt = opt.withDefaults()
	w := perf.DefaultWeights
	return perSpec(opt, opt.suite(), opt.Scale, func(spec gen.Spec, l *model.Layout) (ShiftSharePoint, error) {
		res := mgl.Legalize(l, mgl.Config{})
		shift := w.ShiftWork(res.Stats.FOP.Shift)
		curve := w.CurveWork(res.Stats.FOP.Curve)
		return ShiftSharePoint{Name: spec.Name, ShiftShare: shift / (shift + curve)}, nil
	})
}

// RenderFig2g renders the shift-share series.
func RenderFig2g(pts []ShiftSharePoint) *report.Series {
	s := report.NewSeries("Fig. 2(g): cell shifting share of FOP runtime (CPU)")
	for _, p := range pts {
		s.Add(p.Name, p.ShiftShare)
	}
	return s
}

// SortOverheadPoint is one row of Fig. 6(g): SACS pre-sort overhead and the
// pass-count comparison of the two shifting algorithms.
type SortOverheadPoint struct {
	Name          string
	SortShare     float64 // ahead-sorter cycles / total FOP cycles
	OrigPassesAvg float64 // original algorithm passes per insertion point
	SACSPassesAvg float64 // always 2 (one per phase)
}

// Fig6g measures pre-sort overhead on the FPGA model and the pass structure
// of both shifting algorithms.
func Fig6g(opt Options) ([]SortOverheadPoint, error) {
	opt = opt.withDefaults()
	return perSpec(opt, opt.suite(), opt.Scale, func(spec gen.Spec, l *model.Layout) (SortOverheadPoint, error) {
		traces, res := traceDesign(l, true)
		var sortCycles, total float64
		for _, tr := range traces {
			sortCycles += fpga.SortStreamCycles(tr)
			total += fpga.DefaultPE.RegionCycles(tr)
		}
		points := res.Stats.FOP.InsertionPoints
		origPasses := 0.0
		if points > 0 {
			origPasses = float64(res.Stats.FOP.OriginalShift.Passes) / float64(points)
		}
		return SortOverheadPoint{
			Name:          spec.Name,
			SortShare:     sortCycles / total,
			OrigPassesAvg: origPasses,
			SACSPassesAvg: 2,
		}, nil
	})
}

// RenderFig6g renders the sort-overhead table.
func RenderFig6g(pts []SortOverheadPoint) *report.Table {
	t := report.NewTable("Fig. 6(g): SACS pre-sort overhead and loop structure",
		"Design", "Sort share", "Orig passes/pt", "SACS passes/pt")
	for _, p := range pts {
		t.Add(p.Name, report.Pct(p.SortShare), report.F(p.OrigPassesAvg, 2), report.F(p.SACSPassesAvg, 0))
	}
	return t
}

// LadderPoint is one group of Fig. 8: normalized speedup of the FPGA
// optimization ladder.
type LadderPoint struct {
	Name   string
	Normal float64 // always 1.0
	SACS   float64 // + sort-ahead cell shifting
	MG     float64 // + multi-granularity pipeline (non-parallel)
	TwoPE  float64 // + 2-parallel FOP PEs
}

// Fig8 prices one trace set under the four accelerator configurations.
func Fig8(opt Options) ([]LadderPoint, error) {
	opt = opt.withDefaults()
	configs := []fpga.PEConfig{
		{Pipeline: fpga.NormalPipeline, SACS: fpga.ShiftOriginal, NumPE: 1},
		{Pipeline: fpga.NormalPipeline, SACS: fpga.SACSParal, NumPE: 1},
		{Pipeline: fpga.MultiGranularity, SACS: fpga.SACSParal, NumPE: 1},
		{Pipeline: fpga.MultiGranularity, SACS: fpga.SACSParal, NumPE: 2},
	}
	return perSpec(opt, opt.suite(), opt.Scale, func(spec gen.Spec, l *model.Layout) (LadderPoint, error) {
		traces, _ := traceDesign(l, opt.MeasureOriginal)
		base := sumCycles(configs[0], traces)
		p := LadderPoint{Name: spec.Name, Normal: 1}
		p.SACS = base / sumCycles(configs[1], traces)
		p.MG = base / sumCycles(configs[2], traces)
		p.TwoPE = base / sumCycles(configs[3], traces)
		return p, nil
	})
}

// RenderFig8 renders the pipeline ladder.
func RenderFig8(pts []LadderPoint) *report.Table {
	t := report.NewTable("Fig. 8: normalized speedup by FPGA optimization step",
		"Design", "Normal-Pipeline", "+SACS", "+Multi-Granularity", "+2 FOP PEs")
	for _, p := range pts {
		t.Add(p.Name, report.F(p.Normal, 2), report.F(p.SACS, 2), report.F(p.MG, 2), report.F(p.TwoPE, 2))
	}
	return t
}

// SACSLadderPoint is one group of Fig. 9: the SACS optimization ladder on
// the shifting stage, plus the tall-cell share that explains the ImpBW gain.
type SACSLadderPoint struct {
	Name     string
	Base     float64 // always 1.0
	Arch     float64 // + pipelined architecture
	ImpBW    float64 // + bandwidth optimizations
	Paral    float64 // + parallel left/right phases
	TallFrac float64 // share of cells taller than three rows
}

// Fig9 prices the shifting stage of one trace set under the SACS ladder.
func Fig9(opt Options) ([]SACSLadderPoint, error) {
	opt = opt.withDefaults()
	levels := []fpga.SACSLevel{fpga.SACSBase, fpga.SACSArch, fpga.SACSImpBW, fpga.SACSParal}
	return perSpec(opt, opt.suite(), opt.Scale, func(spec gen.Spec, l *model.Layout) (SACSLadderPoint, error) {
		traces, _ := traceDesign(l, false)
		cycles := make([]float64, len(levels))
		for i, lvl := range levels {
			cfg := fpga.PEConfig{Pipeline: fpga.NormalPipeline, SACS: lvl, NumPE: 1}
			for _, tr := range traces {
				cycles[i] += cfg.ShiftCycles(tr)
			}
		}
		return SACSLadderPoint{
			Name: spec.Name, Base: 1,
			Arch:     cycles[0] / cycles[1],
			ImpBW:    cycles[0] / cycles[2],
			Paral:    cycles[0] / cycles[3],
			TallFrac: spec.TallFraction(),
		}, nil
	})
}

// RenderFig9 renders the SACS ladder.
func RenderFig9(pts []SACSLadderPoint) *report.Table {
	t := report.NewTable("Fig. 9: normalized speedup of SACS optimization steps (shift stage)",
		"Design", "SACS", "SACS-Ar", "SACS-ImpBW", "SACS-Paral", ">3-row cells")
	for _, p := range pts {
		t.Add(p.Name, report.F(p.Base, 2), report.F(p.Arch, 2), report.F(p.ImpBW, 2),
			report.F(p.Paral, 2), report.Pct(p.TallFrac))
	}
	return t
}

// AssignPoint is one bar of Fig. 10: task-assignment strategy comparison.
type AssignPoint struct {
	Name  string
	Ratio float64 // time(d+e on FPGA) / time(d on FPGA): >1 favours the paper's choice
}

// Fig10 compares the two task assignments end to end, one job per
// (design × assignment) pair sharing the design's layout.
func Fig10(opt Options) ([]AssignPoint, error) {
	opt = opt.withDefaults()
	suite := opt.suite()
	layouts, err := opt.generateAll(suite)
	if err != nil {
		return nil, err
	}
	// Step (d) alone on the FPGA, then (d) and (e); both occupy the board.
	assignments := []flex.Options{{}, {OffloadInsert: true}}
	jobs := make([]flex.BatchJob, 0, len(suite)*len(assignments))
	for _, l := range layouts {
		for _, a := range assignments {
			jobs = append(jobs, opt.job(l, flex.EngineFLEX, a))
		}
	}
	results, _, err := opt.submit(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]AssignPoint, len(suite))
	for i, spec := range suite {
		dOnly, dAndE := results[i*2].Outcome.ModeledSeconds, results[i*2+1].Outcome.ModeledSeconds
		out[i] = AssignPoint{Name: spec.Name, Ratio: dAndE / dOnly}
	}
	return out, nil
}

// RenderFig10 renders the task-assignment series.
func RenderFig10(pts []AssignPoint) *report.Series {
	s := report.NewSeries("Fig. 10: speedup of assigning only step (d) to the FPGA vs (d)+(e)")
	for _, p := range pts {
		s.Add(p.Name, p.Ratio)
	}
	return s
}
