package engine

import (
	"github.com/flex-eda/flex/internal/analytical"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/gpu"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/shift"
)

// This file converts each engine's Stats into the flat benchjson.Ops form
// persisted in BENCH_*.json. Every key is a deterministic counter; the
// perf weights price most of them, and the rest (placed, failed, gpu
// batching shape) pin the algorithmic trajectory. Keys are stable API:
// benchdiff compares them across commits, so renaming one is a schema
// change (docs/BENCHMARKING.md lists them all).

func shiftOps(o benchjson.Ops, prefix string, st shift.Stats) {
	o[prefix+".passes"] = int64(st.Passes)
	o[prefix+".subcellVisits"] = int64(st.SubcellVisits)
	o[prefix+".moves"] = int64(st.Moves)
	o[prefix+".sortedCells"] = int64(st.SortedCells)
	o[prefix+".sortOps"] = int64(st.SortOps)
}

func fopOps(o benchjson.Ops, st fop.Stats) {
	o["fop.candidateRows"] = int64(st.CandidateRows)
	o["fop.insertionPoints"] = int64(st.InsertionPoints)
	o["fop.chainCells"] = int64(st.ChainCells)
	shiftOps(o, "fop.shift", st.Shift)
	o["fop.curve.rawBps"] = int64(st.Curve.RawBps)
	o["fop.curve.mergedBps"] = int64(st.Curve.MergedBps)
	o["fop.curve.sortOps"] = int64(st.Curve.SortOps)
	o["fop.curve.traversal"] = int64(st.Curve.Traversal)
}

// mglOps flattens the shared MGL-flow counters (the FLEX engine embeds the
// same Stats).
func mglOps(st mgl.Stats) benchjson.Ops {
	o := benchjson.Ops{}
	o["premove.cells"] = st.PreMoveCells
	o["order.ops"] = st.OrderOps
	o["region.builds"] = st.RegionBuilds
	o["region.cands"] = st.RegionCands
	o["region.rows"] = st.RegionRows
	fopOps(o, st.FOP)
	shiftOps(o, "commit", st.Commit)
	o["commit.cells"] = st.CommitCells
	o["placed"] = st.Placed
	o["expansions"] = st.Expansions
	o["fallbacks"] = st.Fallbacks
	o["failed"] = st.Failed
	return o
}

func flexOps(res *core.Result) benchjson.Ops {
	o := mglOps(res.Stats)
	o["fpga.cycles"] = int64(res.FPGACycles)
	o["fpga.regions"] = int64(res.Regions)
	o["fpga.preloadedRegions"] = int64(res.PreloadedRegions)
	return o
}

func flexBreakdown(res *core.Result) *benchjson.Breakdown {
	return &benchjson.Breakdown{
		FPGASeconds:      res.FPGASeconds,
		CPUSerialSeconds: res.CPUSerialSeconds,
		CPUSteadySeconds: res.CPUSteadySeconds,
		TransferSeconds:  res.TransferSeconds,
	}
}

func gpuOps(res *gpu.Result) benchjson.Ops {
	o := benchjson.Ops{}
	fopOps(o, res.MGLStats.FOP)
	shiftOps(o, "commit", res.MGLStats.Commit)
	o["placed"] = res.MGLStats.Placed
	o["failed"] = res.MGLStats.Failed
	o["gpu.rounds"] = res.GPU.Rounds
	o["gpu.maxBatch"] = int64(res.GPU.MaxBatch)
	o["gpu.batchSum"] = res.GPU.BatchSum
	o["gpu.toughCells"] = res.GPU.ToughCells
	o["gpu.deferred"] = res.GPU.Deferred
	return o
}

func analyticalOps(res *analytical.Result) benchjson.Ops {
	o := benchjson.Ops{}
	o["iterations"] = int64(res.Stats.Iterations)
	o["rowSolves"] = res.Stats.RowSolves
	o["subcellItems"] = res.Stats.SubcellItems
	o["rebalanced"] = res.Stats.Rebalanced
	o["repaired"] = res.Stats.Repaired
	o["failed"] = int64(res.Failed)
	return o
}
