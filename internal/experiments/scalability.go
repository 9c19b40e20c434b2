package experiments

import (
	"fmt"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/fpga"
	"github.com/flex-eda/flex/internal/report"
)

// ScalabilityPoint is one row of the Sec. 5.4 extension experiment: FPGA
// FOP speedup and resource footprint as the FOP PE count grows beyond the
// paper's two.
type ScalabilityPoint struct {
	NumPE     int
	Speedup   float64 // FOP time vs 1 PE at the BRAM-mapped clock
	Resources fpga.Resources
	FitsU50   bool // within the BRAM budget
	// URAM remap (Sec. 5.4): whether the config fits with per-PE tables in
	// UltraRAM, and the speedup at the de-rated URAM clock.
	FitsURAM    bool
	URAMSpeedup float64
}

// Scalability prices one design's trace set under growing PE counts —
// the paper's "speedup can be further improved by increasing the number of
// FOP PEs while BRAM may become a resource bound" projection. The trace is
// captured once; one pricing job per PE count then fans out (see fanOut).
func Scalability(opt Options, maxPE int) ([]ScalabilityPoint, error) {
	opt = opt.withDefaults()
	if maxPE < 2 {
		maxPE = 4
	}
	suite := opt.suite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("scalability: empty suite")
	}
	l, err := opt.generate(suite[0], opt.Scale)
	if err != nil {
		return nil, err
	}
	traces, _ := traceDesign(l, false)
	type priced struct {
		seconds     float64
		uramSeconds float64
		resources   fpga.Resources
		fitsURAM    bool
	}
	pricedPts, err := fanOut(opt, maxPE, func(i int) (priced, error) {
		n := i + 1
		cfg := fpga.PEConfig{Pipeline: fpga.MultiGranularity, SACS: fpga.SACSParal, NumPE: n}
		cycles := sumCycles(cfg, traces)
		uramCfg := cfg
		uramCfg.ClockMHz = fpga.URAMClockMHz
		uramRes, urams := fpga.EstimateURAM(n)
		return priced{
			seconds:     cfg.Seconds(cycles),
			uramSeconds: uramCfg.Seconds(cycles),
			resources:   fpga.Estimate(n),
			fitsURAM:    uramRes.FitsIn(fpga.AlveoU50) && urams <= fpga.U50URAMs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	base := pricedPts[0].seconds
	out := make([]ScalabilityPoint, maxPE)
	for i, p := range pricedPts {
		out[i] = ScalabilityPoint{
			NumPE:       i + 1,
			Speedup:     base / p.seconds,
			Resources:   p.resources,
			FitsU50:     p.resources.FitsIn(fpga.AlveoU50),
			FitsURAM:    p.fitsURAM,
			URAMSpeedup: base / p.uramSeconds,
		}
	}
	return out, nil
}

// RenderScalability renders the PE sweep.
func RenderScalability(pts []ScalabilityPoint) *report.Table {
	t := report.NewTable("Sec. 5.4 extension: FOP PE scaling (speedup vs 1 PE, resources)",
		"PEs", "Speedup", "LUTs", "BRAMs", "Fits U50", "URAM speedup", "Fits w/ URAM")
	for _, p := range pts {
		t.Add(fmt.Sprint(p.NumPE), report.F(p.Speedup, 2),
			fmt.Sprint(p.Resources.LUTs), fmt.Sprint(p.Resources.BRAMs),
			fmt.Sprint(p.FitsU50),
			report.F(p.URAMSpeedup, 2), fmt.Sprint(p.FitsURAM))
	}
	return t
}

// OrderingPoint is one row of the ordering ablation:
// quality of the sliding-window ordering vs plain size ordering.
type OrderingPoint struct {
	Name        string
	PlainAveDis float64
	SWAveDis    float64
	GainPct     float64 // positive = sliding window better
}

// orderingWindows are the two FLEX configurations the ablation compares:
// size-only ordering (window disabled) vs the paper's 8-target window.
var orderingWindows = []int{-1, 8}

// OrderingAblation compares FLEX's quality with and without the
// density-aware sliding-window ordering (Sec. 3.1.2's ~1% claim), one job
// per (design × ordering) pair sharing the design's layout.
func OrderingAblation(opt Options) ([]OrderingPoint, error) {
	opt = opt.withDefaults()
	suite := opt.suite()
	layouts, err := opt.generateAll(suite)
	if err != nil {
		return nil, err
	}
	jobs := make([]flex.BatchJob, 0, len(suite)*len(orderingWindows))
	for _, l := range layouts {
		for _, w := range orderingWindows {
			jobs = append(jobs, opt.job(l, flex.EngineFLEX, flex.Options{SlidingWindow: w}))
		}
	}
	results, _, err := opt.submit(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]OrderingPoint, len(suite))
	for i, spec := range suite {
		plain, sw := results[i*2].Outcome.Metrics.AveDis, results[i*2+1].Outcome.Metrics.AveDis
		gain := 0.0
		if plain > 0 {
			gain = (plain - sw) / plain * 100
		}
		out[i] = OrderingPoint{Name: spec.Name, PlainAveDis: plain, SWAveDis: sw, GainPct: gain}
	}
	return out, nil
}

// RenderOrdering renders the ordering ablation.
func RenderOrdering(pts []OrderingPoint) *report.Table {
	t := report.NewTable("Ordering ablation: sliding window (Sec. 3.1.2) vs size-only",
		"Design", "Size-only AveDis", "SlidingWin AveDis", "Gain")
	var sum float64
	for _, p := range pts {
		t.Add(p.Name, report.F(p.PlainAveDis, 4), report.F(p.SWAveDis, 4),
			fmt.Sprintf("%+.2f%%", p.GainPct))
		sum += p.GainPct
	}
	if len(pts) > 0 {
		t.Add("Average", "", "", fmt.Sprintf("%+.2f%%", sum/float64(len(pts))))
	}
	return t
}
