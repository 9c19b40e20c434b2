// Package core implements FLEX, the paper's contribution: an FPGA-CPU
// co-designed legalizer for mixed-cell-height designs.
//
// The engine runs the real MGL flow (internal/mgl) with the FLEX-specific
// choices of Sec. 3 — sliding-window processing ordering, the restructured
// streaming FOP operators — and prices each step on the platform that owns
// it under the task-assignment strategy of Sec. 3.1.1:
//
//   - steps a) input & pre-move, b) process ordering, c) define localRegion
//     stay on the CPU;
//   - step d) FOP runs on the FPGA model (internal/fpga), one localRegion at
//     a time, with ping-pong RAM preloading hiding the region transfer
//     whenever the next target's region does not overlap the current one;
//   - step e) insert & update stays on the CPU (the paper's choice) or is
//     offloaded to the FPGA (the Fig. 10 ablation), which makes every
//     position write-back a visible PCIe transfer.
//
// The modeled total runtime overlaps the CPU-side steady state with the
// FPGA pipeline, exactly the overlap argument of Sec. 5.3: the visible
// communication cost reduces to the first region's transfer plus the
// transfers that could not be preloaded.
package core

import (
	"github.com/flex-eda/flex/internal/fpga"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/perf"
)

// TaskAssignment selects which flow steps run on the FPGA (Sec. 3.1.1).
type TaskAssignment int

const (
	// FOPOnFPGA is the paper's strategy: only step d) on the FPGA.
	FOPOnFPGA TaskAssignment = iota
	// FOPAndInsertOnFPGA additionally offloads step e), forcing all updated
	// positions back over PCIe (the slower alternative of Fig. 10).
	FOPAndInsertOnFPGA
)

// PCIe transfer model between host and the Alveo card.
const (
	pcieBytesPerSec = 8e9  // effective host↔card bandwidth
	pcieLatency     = 3e-6 // per-transaction round-trip seconds
	// Position write-backs are short posted DMA bursts; their
	// per-transaction latency is lower, but unlike region downloads they
	// cannot be hidden behind compute (they gate steps b and c).
	pcieUpdateLatency = 1e-6
	bytesPerCell      = 16 // region descriptor entry
	bytesPerUpdate    = 8  // position write-back entry
)

// Config parameterizes the FLEX engine.
type Config struct {
	// PE is the FPGA cluster configuration; zero value uses fpga.DefaultPE.
	PE fpga.PEConfig
	// Assignment selects the CPU/FPGA task split.
	Assignment TaskAssignment
	// SlidingWindow is the ordering window length (0 = default 8;
	// negative disables the density reordering, for ablations).
	SlidingWindow int
	// CPU prices the host-side steps; zero value uses perf.DefaultCPU.
	// Operations are weighted by perf.DefaultWeights.
	CPU *perf.CPUModel
	// MeasureOriginalShift threads the instrumentation flag through to FOP.
	MeasureOriginalShift bool
	// Trail, when set, records the run's steps and replays those of the
	// trail it was built from (mgl.Config.Trail); the result and its
	// pricing do not change.
	Trail *mgl.Trail
}

func (c Config) pe() fpga.PEConfig {
	if c.PE.NumPE == 0 {
		return fpga.DefaultPE
	}
	return c.PE
}

func (c Config) cpu() perf.CPUModel {
	if c.CPU != nil {
		return *c.CPU
	}
	return perf.DefaultCPU
}

// Result extends the algorithmic result with the platform time breakdown.
type Result struct {
	*mgl.Result
	// FPGACycles is the total FOP (plus optionally commit) cycle count.
	FPGACycles float64
	// FPGASeconds prices FPGACycles at the configured clock.
	FPGASeconds float64
	// CPUSerialSeconds is step a) — inherently serial preprocessing.
	CPUSerialSeconds float64
	// CPUSteadySeconds is the steady-state host work (steps b, c and, under
	// FOPOnFPGA, step e) that overlaps the FPGA pipeline.
	CPUSteadySeconds float64
	// TransferSeconds is the visible (non-overlapped) PCIe time.
	TransferSeconds float64
	// TotalSeconds is the modeled end-to-end runtime.
	TotalSeconds float64
	// Regions is the number of FOP invocations traced.
	Regions int
	// PreloadedRegions counts regions whose transfer was hidden by the
	// ping-pong buffers (next window disjoint from the current one).
	PreloadedRegions int
}

// Legalize runs FLEX on a clone of l.
func Legalize(l *model.Layout, cfg Config) *Result {
	pe := cfg.pe()
	cpu := cfg.cpu()
	w := perf.DefaultWeights

	sw := cfg.SlidingWindow
	if sw == 0 {
		sw = 8
	}
	if sw < 0 {
		sw = 0 // ablation: plain size ordering
	}

	out := &Result{}
	var fopCycles, commitCycles float64
	var hiddenBytes, visibleBytes float64
	visibleTransactions := 1 // the first region is never preloaded
	updateTransactions := 0
	var prevWin geom.Rect
	first := true

	mcfg := mgl.Config{
		Streamed:             true,
		SlidingWindow:        sw,
		MeasureOriginalShift: cfg.MeasureOriginalShift,
		Trail:                cfg.Trail,
		TraceFn: func(tt mgl.TargetTrace) {
			ftr := fpga.TraceFromFOP(tt.FOP, int(tt.CommitMoved))
			fopCycles += pe.RegionCycles(ftr)
			commitCycles += pe.CommitCycles(ftr)
			out.Regions++

			down := float64(tt.LocalCells)*bytesPerCell + 64
			if !first && !prevWin.Overlaps(tt.Window) {
				// Ping-pong preload: the next region loads while the
				// current one computes.
				hiddenBytes += down
				out.PreloadedRegions++
			} else {
				visibleBytes += down
				if !first {
					visibleTransactions++
				}
			}
			if cfg.Assignment == FOPAndInsertOnFPGA {
				// Position write-backs interfere with steps b) and c)
				// (Sec. 3.1.1) and cannot be hidden.
				visibleBytes += float64(tt.CommitMoved)*bytesPerUpdate + 32
				updateTransactions++
			}
			prevWin = tt.Window
			first = false
		},
	}
	res := mgl.Legalize(l, mcfg)
	out.Result = res

	// CPU-side pricing by flow step.
	st := &res.Stats
	premoveUnits := w.PreMove * float64(st.PreMoveCells)
	orderUnits := w.OrderOp * float64(st.OrderOps)
	regionUnits := w.RegionCand*float64(st.RegionCands) + w.RegionRow*float64(st.RegionRows)
	commitUnits := w.CommitCell*float64(st.CommitCells) + w.ShiftWork(st.Commit)

	steadyUnits := orderUnits + regionUnits
	out.FPGACycles = fopCycles
	if cfg.Assignment == FOPAndInsertOnFPGA {
		out.FPGACycles += commitCycles
	} else {
		steadyUnits += commitUnits
	}

	out.CPUSerialSeconds = cpu.Seconds(premoveUnits)
	out.CPUSteadySeconds = cpu.Seconds(steadyUnits)
	out.FPGASeconds = pe.Seconds(out.FPGACycles)
	out.TransferSeconds = visibleBytes/pcieBytesPerSec +
		float64(visibleTransactions)*pcieLatency +
		float64(updateTransactions)*pcieUpdateLatency

	// The ping-pong/deep-pipeline overlap: steady-state CPU work and the
	// FPGA pipeline proceed concurrently; the longer one gates throughput.
	overlap := out.CPUSteadySeconds
	if out.FPGASeconds > overlap {
		overlap = out.FPGASeconds
	}
	out.TotalSeconds = out.CPUSerialSeconds + overlap + out.TransferSeconds
	return out
}
