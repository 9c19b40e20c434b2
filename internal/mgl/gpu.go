package mgl

import (
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/order"
	"github.com/flex-eda/flex/internal/perf"
	"github.com/flex-eda/flex/internal/region"
)

// This file is the DATE'22 CPU-GPU legalizer baseline the FLEX paper
// compares against (Yang et al., "Mixed-Cell-Height Legalization on
// CPU-GPU Heterogeneous Systems"), with the scheduling behaviours the paper
// criticizes:
//
//   - region-level parallelism: batches of targets with non-overlapping
//     windows are evaluated concurrently on the GPU (a thread block per
//     region), bounded by how many disjoint regions the design offers —
//     far fewer than the card's CUDA cores (Fig. 2(c));
//   - per-batch data synchronization: every kernel round ends with a
//     device↔host position sync whose cost dominates (Fig. 2(b));
//   - tough cells (tall or extra-wide) are assigned to the CPU, which
//     processes them slowly and out of the global size order, hurting both
//     runtime (Fig. 2(d)) and quality.
//
// It runs on the package's engine — pre-move, windows, evaluation, commit
// and batch collection are the ones MGL and MGL-MT use — and keeps only
// its own scheduling (the tough-cell CPU queue, kernel rounds and their
// interleave) and pricing (kernel, sync and CPU seconds). Only time is
// modeled, on the card below.

// CUDACores is the modeled card's CUDA core count: a GTX 1660 Ti, the
// paper's comparison card (Fig. 2(c)).
const CUDACores = 1536

// The rest of the card model.
const (
	gpuNsPerUnit     = 3.8    // per-work-unit cost of one thread block; slower than a CPU core
	gpuKernelLaunch  = 18e-6  // seconds per kernel launch, argument marshalling included
	gpuSyncLatency   = 260e-6 // seconds per post-round sync: position gather/scatter + host bookkeeping
	gpuSyncBytesPerS = 6e9    // effective device↔host bandwidth
)

// Cells at least toughH rows tall or toughW sites wide are tough: the CPU
// places them.
const toughH, toughW = 3, 16

// GPUConfig parameterizes the CPU-GPU baseline.
type GPUConfig struct {
	BatchMax  int // max regions per kernel round (0 = 64)
	Lookahead int // how deep the scheduler scans for disjoint regions (0 = 4×BatchMax)
}

// GPUStats records the scheduling behaviour of one CPU-GPU run.
type GPUStats struct {
	Rounds        int64
	MaxBatch      int     // largest kernel round (Fig. 2(c))
	BatchSum      int64   // for average batch size
	ToughCells    int64   // cells assigned to the CPU
	Deferred      int64   // batch results redone serially after conflicts
	KernelSeconds float64 // GPU compute time
	SyncSeconds   float64 // device↔host synchronization time (Fig. 2(b))
	CPUSeconds    float64 // host-side time (tough cells + serial steps)
}

// SyncShare returns the fraction of total runtime spent synchronizing.
func (s GPUStats) SyncShare(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return s.SyncSeconds / total
}

// GPUResult is a finished CPU-GPU legalization, priced by GPU and
// TotalSeconds. Of the embedded Stats, the pre-move, FOP and commit
// counters, Placed and Failed count the run; the rest stay unused.
type GPUResult struct {
	*Result
	GPU          GPUStats
	TotalSeconds float64
}

type gpuEngine struct {
	*engine
	cfg GPUConfig
	gst GPUStats
	// slots hold a kernel round's regions, one Extractor per target, until
	// the round commits them; the engine's own Extractor serves hostPlace,
	// whose region is done with before it returns. slots is sized once, so
	// a pending region never moves. Rounds evaluate serially, so they share
	// the engine's Finder and query buffer.
	slots []region.Extractor
}

// LegalizeGPU runs the CPU-GPU baseline on a clone of l.
func LegalizeGPU(l *model.Layout, cfg GPUConfig) *GPUResult {
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 64
	}
	if cfg.Lookahead == 0 {
		cfg.Lookahead = 4 * cfg.BatchMax
	}
	g := &gpuEngine{engine: newEngine(l, Config{}), cfg: cfg}
	// Pre-move is serial host work, all the engine has priced so far.
	g.gst.CPUSeconds = perf.DefaultCPU.Seconds(g.st.WorkSerial)
	g.run()
	// Total: GPU rounds and CPU tough processing overlap poorly in the
	// DATE'22 design (the scheduler stalls on the slower side each round);
	// synchronization serializes everything.
	return &GPUResult{
		Result:       g.finish(),
		GPU:          g.gst,
		TotalSeconds: max(g.gst.KernelSeconds, g.gst.CPUSeconds) + g.gst.SyncSeconds,
	}
}

func (g *gpuEngine) run() {
	// Split into GPU queue and CPU tough queue, both size-descending.
	var gpuQ, toughQ []int
	for sched := order.NewSizeOrder(g.l); ; {
		id, ok := sched.Next()
		if !ok {
			break
		}
		if c := &g.l.Cells[id]; c.H >= toughH || c.W >= toughW {
			toughQ = append(toughQ, id)
		} else {
			gpuQ = append(gpuQ, id)
		}
	}
	g.gst.ToughCells = int64(len(toughQ))
	// A round holds at most BatchMax targets and never more than the queue
	// (one when BatchMax is below one).
	n := max(1, min(g.cfg.BatchMax, len(gpuQ)))
	g.slots = make([]region.Extractor, n)
	g.sizeBatches(n)

	// Interleave: every kernel round is followed by a slice of tough cells
	// on the CPU, approximating the concurrent scheduler. The CPU list is
	// drained proportionally so both sides finish around the same round.
	estRounds := (len(gpuQ) + g.cfg.BatchMax/2) / max(1, g.cfg.BatchMax/2)
	toughPerRound := 0
	if estRounds > 0 {
		toughPerRound = (len(toughQ) + estRounds - 1) / estRounds
	}

	for len(gpuQ) > 0 || len(toughQ) > 0 {
		if len(gpuQ) > 0 {
			gpuQ = g.kernelRound(gpuQ)
		}
		// CPU side: tough cells, sequential, priced at CPU rates.
		n := toughPerRound
		if len(gpuQ) == 0 {
			n = len(toughQ) // GPU done: drain
		}
		for i := 0; i < n && len(toughQ) > 0; i++ {
			id := toughQ[0]
			toughQ = toughQ[1:]
			g.gst.CPUSeconds += perf.DefaultCPU.Seconds(g.hostPlace(id))
		}
	}
}

// kernelRound collects a batch of disjoint regions, evaluates them (modeled
// as one kernel), commits serially, and charges launch + compute + sync.
// It returns the targets left for later rounds.
func (g *gpuEngine) kernelRound(queue []int) []int {
	rest := g.collect(queue, g.cfg.BatchMax, g.cfg.Lookahead)
	batch := g.batch
	g.gst.Rounds++
	g.gst.BatchSum += int64(len(batch))
	g.gst.MaxBatch = max(g.gst.MaxBatch, len(batch))

	// Evaluate the batch against the frozen layout; the kernel's cost is
	// the slowest region in the round (blocks run concurrently).
	var maxUnits float64
	evals := g.evals[:len(batch)]
	for i, id := range batch {
		before := g.w.FOPWork(g.st.FOP)
		evals[i] = g.evaluate(id, &g.slots[i], &g.fop, &g.candBuf, &g.st.FOP)
		maxUnits = max(maxUnits, g.w.FOPWork(g.st.FOP)-before)
	}
	g.gst.KernelSeconds += gpuKernelLaunch + maxUnits*gpuNsPerUnit*1e-9

	// Serial commit with conflict deferral (redone against fresh state).
	var moved int64
	done := g.done[:0]
	for i, id := range batch {
		r := &evals[i]
		if !r.cand.Feasible || overlapsAny(done, r.expanded) {
			g.gst.Deferred++
			g.gst.CPUSeconds += perf.DefaultCPU.Seconds(g.hostPlace(id))
			done = append(done, g.window(&g.l.Cells[id], 0))
			continue
		}
		beforeMoves := g.st.Commit.Moves
		if !g.commit(id, r.reg, r.cand) {
			// Redone on the host, unpriced.
			g.gst.Deferred++
			g.hostPlace(id)
		}
		moved += int64(g.st.Commit.Moves - beforeMoves + 1)
		done = append(done, r.expanded)
	}
	g.done = done

	// Post-round synchronization: gather all updated positions to the
	// host, scatter the fresh state back to the device.
	g.gst.SyncSeconds += gpuSyncLatency + float64(moved*16)/gpuSyncBytesPerS
	return rest
}

// hostPlace is the CPU side's sequential step for one target: one
// evaluation, then one commit, with no further widening if the commit
// fails. It returns the evaluation's FOP work units.
func (g *gpuEngine) hostPlace(id int) float64 {
	before := g.w.FOPWork(g.st.FOP)
	r := g.evaluate(id, &g.ext, &g.fop, &g.candBuf, &g.st.FOP)
	if !r.cand.Feasible || !g.commit(id, r.reg, r.cand) {
		g.st.Failed++
	}
	return g.w.FOPWork(g.st.FOP) - before
}
