// Package gpu reimplements the DATE'22 CPU-GPU legalizer baseline the FLEX
// paper compares against (Yang et al., "Mixed-Cell-Height Legalization on
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
// The algorithmic work (region extraction, FOP, shifting) is the real
// implementation shared with every other engine; only time is modeled, via
// the Device parameters.
package gpu

import (
	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/order"
	"github.com/flex-eda/flex/internal/perf"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

// Device models the GPU card (defaults approximate a GTX 1660 Ti).
type Device struct {
	CUDACores     int     // 1536 on the paper's card
	NsPerUnit     float64 // per-work-unit cost of one GPU thread block
	KernelLaunch  float64 // seconds per kernel launch
	SyncLatency   float64 // seconds per post-batch synchronization round
	SyncBytesPerS float64 // effective device↔host bandwidth
}

// GTX1660Ti is the paper's comparison card.
var GTX1660Ti = Device{
	CUDACores:     1536,
	NsPerUnit:     3.8,    // single block is slower than a CPU core
	KernelLaunch:  18e-6,  // launch + argument marshalling
	SyncLatency:   260e-6, // position gather/scatter + host bookkeeping
	SyncBytesPerS: 6e9,
}

// Config parameterizes the baseline.
type Config struct {
	Device    Device
	BatchMax  int // max regions per kernel round (0 = 64)
	Lookahead int // how deep the scheduler scans for disjoint regions (0 = 4×BatchMax)
	// ToughH / ToughW classify tough cells sent to the CPU.
	ToughH int // cells at least this tall are tough (0 = 3)
	ToughW int // cells at least this wide are tough (0 = 16)
	// CPU prices the host-side work; zero value uses perf.DefaultCPU.
	CPU     *perf.CPUModel
	Weights *perf.Weights
}

func (c Config) device() Device {
	if c.Device.CUDACores == 0 {
		return GTX1660Ti
	}
	return c.Device
}

// Stats records the scheduling behaviour of one run.
type Stats struct {
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
func (s Stats) SyncShare(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return s.SyncSeconds / total
}

// Result is a finished CPU-GPU legalization.
type Result struct {
	Layout       *model.Layout
	Metrics      model.Metrics
	MGLStats     mglStats
	GPU          Stats
	Legal        bool
	Violations   []model.Violation
	TotalSeconds float64
}

// mglStats aggregates the algorithmic op counters (superset of what the
// time model needs; kept exported-field-free on purpose).
type mglStats struct {
	FOP    fop.Stats
	Commit shift.Stats
	Placed int64
	Failed int64
}

type engine struct {
	l      *model.Layout
	cfg    Config
	dev    Device
	w      perf.Weights
	cpu    perf.CPUModel
	idx    *region.Index
	placed []bool
	st     mglStats
	gst    Stats
	fop    fop.Finder // FOP scratch; every evaluation runs serially
}

// Legalize runs the CPU-GPU baseline on a clone of l.
func Legalize(l *model.Layout, cfg Config) *Result {
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 64
	}
	if cfg.Lookahead == 0 {
		cfg.Lookahead = 4 * cfg.BatchMax
	}
	if cfg.ToughH == 0 {
		cfg.ToughH = 3
	}
	if cfg.ToughW == 0 {
		cfg.ToughW = 16
	}
	e := &engine{l: l.Clone(), cfg: cfg, dev: cfg.device()}
	if cfg.Weights != nil {
		e.w = *cfg.Weights
	} else {
		e.w = perf.DefaultWeights
	}
	if cfg.CPU != nil {
		e.cpu = *cfg.CPU
	} else {
		e.cpu = perf.DefaultCPU
	}
	e.run()
	res := &Result{
		Layout:   e.l,
		Metrics:  model.Measure(e.l),
		MGLStats: e.st,
		GPU:      e.gst,
	}
	res.Violations = e.l.Check(16)
	res.Legal = len(res.Violations) == 0 && e.st.Failed == 0
	// Total: GPU rounds and CPU tough processing overlap poorly in the
	// DATE'22 design (the scheduler stalls on the slower side each round);
	// synchronization serializes everything.
	gpuSide := e.gst.KernelSeconds
	cpuSide := e.gst.CPUSeconds
	overlap := gpuSide
	if cpuSide > overlap {
		overlap = cpuSide
	}
	res.TotalSeconds = overlap + e.gst.SyncSeconds
	return res
}

func (e *engine) run() {
	// Pre-move (CPU, serial).
	var premoveUnits float64
	for i := range e.l.Cells {
		c := &e.l.Cells[i]
		if c.Fixed {
			continue
		}
		c.X = clamp(c.GX, 0, e.l.NumSitesX-c.W)
		c.Y = snapRow(c.GY, c.H, c.Parity, e.l.NumRows)
		premoveUnits += e.w.PreMove
	}
	e.gst.CPUSeconds += e.cpu.Seconds(premoveUnits)

	e.placed = make([]bool, len(e.l.Cells))
	e.idx = region.NewIndex(e.l, 32, 4, func(i int) bool { return e.l.Cells[i].Fixed })

	// Split into GPU queue and CPU tough queue, both size-descending.
	sched := order.NewSizeOrder(e.l)
	var gpuQ, toughQ []int
	for {
		id, ok := sched.Next()
		if !ok {
			break
		}
		c := &e.l.Cells[id]
		if c.H >= e.cfg.ToughH || c.W >= e.cfg.ToughW {
			toughQ = append(toughQ, id)
		} else {
			gpuQ = append(gpuQ, id)
		}
	}
	e.gst.ToughCells = int64(len(toughQ))

	// Interleave: every kernel round is followed by a slice of tough cells
	// on the CPU, approximating the concurrent scheduler. The CPU list is
	// drained proportionally so both sides finish around the same round.
	estRounds := (len(gpuQ) + e.cfg.BatchMax/2) / maxI(1, e.cfg.BatchMax/2)
	toughPerRound := 0
	if estRounds > 0 {
		toughPerRound = (len(toughQ) + estRounds - 1) / estRounds
	}

	for len(gpuQ) > 0 || len(toughQ) > 0 {
		if len(gpuQ) > 0 {
			gpuQ = e.kernelRound(gpuQ)
		}
		// CPU side: tough cells, sequential, priced at CPU rates.
		n := toughPerRound
		if len(gpuQ) == 0 {
			n = len(toughQ) // GPU done: drain
		}
		for i := 0; i < n && len(toughQ) > 0; i++ {
			id := toughQ[0]
			toughQ = toughQ[1:]
			before := e.st.FOP
			e.placeOne(id, false)
			delta := fopWorkDelta(e.w, e.st.FOP, before)
			e.gst.CPUSeconds += e.cpu.Seconds(delta)
		}
	}
}

// kernelRound collects a batch of disjoint regions, evaluates them (modeled
// as one kernel), commits serially, and charges launch + compute + sync.
func (e *engine) kernelRound(queue []int) []int {
	var batch []int
	var wins []geom.Rect
	var rest []int
	scanned := 0
	for _, id := range queue {
		if len(batch) >= e.cfg.BatchMax || scanned >= e.cfg.Lookahead {
			rest = append(rest, id)
			continue
		}
		scanned++
		win := e.window(&e.l.Cells[id], 0)
		conflict := false
		for _, w := range wins {
			if w.Overlaps(win) {
				conflict = true
				break
			}
		}
		if conflict {
			rest = append(rest, id)
			continue
		}
		batch = append(batch, id)
		wins = append(wins, win)
	}
	if len(batch) == 0 && len(rest) > 0 {
		// Guaranteed progress: take the head alone.
		batch = append(batch, rest[0])
		rest = rest[1:]
	}

	e.gst.Rounds++
	e.gst.BatchSum += int64(len(batch))
	if len(batch) > e.gst.MaxBatch {
		e.gst.MaxBatch = len(batch)
	}

	// Evaluate the batch against the frozen layout; the kernel's cost is
	// the slowest region in the round (blocks run concurrently).
	var maxUnits float64
	var committedWins []geom.Rect
	var moved int64
	type evalRes struct {
		reg  *region.Region
		cand fop.Candidate
		win  geom.Rect
	}
	evals := make([]evalRes, len(batch))
	for i, id := range batch {
		before := e.st.FOP
		reg, cand, win := e.evaluate(id)
		units := fopWorkDelta(e.w, e.st.FOP, before)
		if units > maxUnits {
			maxUnits = units
		}
		evals[i] = evalRes{reg, cand, win}
	}
	e.gst.KernelSeconds += e.dev.KernelLaunch + maxUnits*e.dev.NsPerUnit*1e-9

	// Serial commit with conflict deferral (redone against fresh state).
	for i, id := range batch {
		r := evals[i]
		conflict := !r.cand.Feasible
		for _, w := range committedWins {
			if w.Overlaps(r.win) {
				conflict = true
				break
			}
		}
		if conflict {
			e.gst.Deferred++
			before := e.st.FOP
			e.placeOne(id, false)
			delta := fopWorkDelta(e.w, e.st.FOP, before)
			e.gst.CPUSeconds += e.cpu.Seconds(delta)
			committedWins = append(committedWins, e.window(&e.l.Cells[id], 0))
			continue
		}
		beforeMoves := e.st.Commit.Moves
		if !e.commit(id, r.reg, r.cand) {
			e.gst.Deferred++
			e.placeOne(id, false)
		}
		moved += int64(e.st.Commit.Moves - beforeMoves + 1)
		committedWins = append(committedWins, r.win)
	}

	// Post-round synchronization: gather all updated positions to the
	// host, scatter the fresh state back to the device.
	e.gst.SyncSeconds += e.dev.SyncLatency + float64(moved*16)/e.dev.SyncBytesPerS
	return rest
}

// evaluate runs steps c)+d) without committing, expanding as needed.
func (e *engine) evaluate(id int) (*region.Region, fop.Candidate, geom.Rect) {
	c := &e.l.Cells[id]
	tg := fop.Target{GX: c.GX, GY: c.GY, W: c.W, H: c.H,
		ParityOK: c.Parity.AllowsRow, RowHeight: e.l.RowHeight}
	for n := 0; ; n++ {
		win := e.window(c, n)
		if n >= 4 {
			win = e.l.Die()
		}
		cands := e.idx.Query(win, nil)
		reg := region.ExtractFrom(e.l, e.placed, id, win, cands)
		cand := e.fop.Best(reg, tg, fop.Options{}, &e.st.FOP)
		if cand.Feasible || n >= 4 {
			return reg, cand, win
		}
	}
}

// placeOne is the sequential fallback path (CPU side).
func (e *engine) placeOne(id int, gpuSide bool) bool {
	reg, cand, _ := e.evaluate(id)
	if cand.Feasible && e.commit(id, reg, cand) {
		return true
	}
	e.st.Failed++
	return false
}

func (e *engine) commit(id int, reg *region.Region, cand fop.Candidate) bool {
	p := shift.Placement{TX: cand.X, TY: cand.Y, TW: reg.TargetW, TH: reg.TargetH, Boundary2: cand.Boundary2}
	if !shift.SACS(reg, p, &e.st.Commit) {
		return false
	}
	for i := range reg.Cells {
		lc := &reg.Cells[i]
		cell := &e.l.Cells[lc.ID]
		if cell.X != lc.X {
			cell.X = lc.X
			e.idx.Update(lc.ID)
		}
	}
	t := &e.l.Cells[id]
	t.X, t.Y = cand.X, cand.Y
	e.placed[id] = true
	e.idx.Add(id)
	e.st.Placed++
	return true
}

func (e *engine) window(c *model.Cell, n int) geom.Rect {
	w := maxI(8*c.W, 64) << uint(n)
	h := maxI(4*c.H, 6) << uint(n)
	cx := c.GX + c.W/2
	cy := c.GY + c.H/2
	return geom.NewRect(cx-w/2, cy-h/2, w, h)
}

func fopWorkDelta(w perf.Weights, after, before fop.Stats) float64 {
	return w.FOPWork(after) - w.FOPWork(before)
}

func snapRow(gy, h int, p model.PGParity, numRows int) int {
	y := clamp(gy, 0, numRows-h)
	if p.AllowsRow(y) {
		return y
	}
	for d := 1; ; d++ {
		if y-d >= 0 && p.AllowsRow(y-d) {
			return y - d
		}
		if y+d <= numRows-h && p.AllowsRow(y+d) {
			return y + d
		}
		if y-d < 0 && y+d > numRows-h {
			return y
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if hi < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
