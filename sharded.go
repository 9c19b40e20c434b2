package flex

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
	"github.com/flex-eda/flex/internal/shard"
)

// DefaultShardHalo is the seam-crossing reassignment window, in rows, a
// sharded job plans with when neither the job nor the service overrides it
// (see BatchJob.ShardHalo).
const DefaultShardHalo = 2

// maxAutoShards caps size-triggered sharding (WithAutoShardBytes): each
// band occupies one admission slot, so an unbounded ceil(bytes/threshold)
// would let one oversized job amplify itself past the queue depth.
// Explicit BatchJob.Shards / WithShards requests are not capped — the
// caller asked for exactly that expansion.
const maxAutoShards = 64

// shardPrep is the lazily computed decomposition one sharded job's band
// jobs share: whichever band job the pool runs first resolves the layout
// (through the service's cache for design references) and splits it; its
// siblings reuse the memoized result.
type shardPrep struct {
	layout *Layout // the job's effective input (base with edits applied)
	base   *Layout // the pre-edit base; == layout for jobs without edits
	plan   *shard.Plan
	bands  []*Layout
}

// jobOrigin maps one pool job back to the submitted job it came from.
type jobOrigin struct {
	owner int // submitted job index
	band  int // band index within the owner (0 for plain jobs)
}

// shardState is one sharded job's shared decomposition: the memoized prep
// plus the effective band count, published once the split exists so the
// collector can tell a real band from a padding slot (a band index beyond
// what the plan could hold).
type shardState struct {
	prep      func() (*shardPrep, error)
	effective atomic.Int32 // len(plan.Bands) once split; 0 = not yet known

	// eco is the memoized outcome-cache reuse decision (nil when the
	// service has no outcome cache): which bands may serve cached outcomes
	// instead of legalizing, and whether fold should store a fresh entry.
	eco func() (*ecoInfo, error)
}

// expansion is one submission's flattened job set. Plain jobs pass through
// one-to-one; a job with effective shard count K contributes K pool jobs —
// one per planned band, padding slots returning (nil, nil) when the plan
// clamps K to what the die holds — plus the bookkeeping that folds band
// results back into one BatchResult per submitted job. Admission control
// counts the expanded jobs: a K-sharded job occupies K queue slots.
type expansion struct {
	svc     *Service
	jobs    []BatchJob
	shards  []int                 // per job: 0 = plain path, >= 1 = shard path with K bands
	pool    []batch.Job[*Outcome] // the flattened pool jobs
	classes []sched.Class         // per pool job; bands share the owner's class
	origin  []jobOrigin           // pool index -> submitted job
	states  []*shardState         // per job; nil for plain jobs
	recs    []*obs.Recorder       // per job; non-nil only when the service traces
}

// classFor stamps one submitted job's scheduling class: priority, deadline
// and client straight from the job, the fair-share weight from the
// service's per-client table, and a board-configuration identity unique to
// (submission, job) so the reconfiguration model sees a job's bands as one
// bitstream and distinct jobs as distinct ones.
func (s *Service) classFor(job BatchJob, seq int64, j int) sched.Class {
	return sched.Class{
		Priority: job.Priority,
		Deadline: job.Deadline,
		Client:   job.Client,
		Weight:   s.clientWeights[job.Client],
		Job:      fmt.Sprintf("%d.%d", seq, j),
	}
}

// expand flattens one submission, deciding each job's effective shard count
// (job knob, then service default, then the auto-shard byte threshold) and
// stamping every pool job's scheduling class.
func (s *Service) expand(jobs []BatchJob) *expansion {
	seq := s.batchSeq.Add(1)
	e := &expansion{
		svc:    s,
		jobs:   jobs,
		shards: make([]int, len(jobs)),
		states: make([]*shardState, len(jobs)),
		recs:   make([]*obs.Recorder, len(jobs)),
	}
	if s.tracing {
		for j := range jobs {
			e.recs[j] = obs.NewRecorder(traceName(jobs[j]))
		}
	}
	for j := range jobs {
		job := jobs[j]
		class := s.classFor(job, seq, j)
		k := s.effectiveShards(job)
		e.shards[j] = k
		if k == 0 {
			pj := s.poolJob(job, class)
			if s.outcomes != nil || job.isEco() {
				pj = s.plainPoolJob(job, class)
			}
			e.pool = append(e.pool, e.traceJob(j, 0, 0, pj))
			e.classes = append(e.classes, class)
			e.origin = append(e.origin, jobOrigin{owner: j})
			continue
		}
		st := &shardState{}
		st.prep = sync.OnceValues(func() (*shardPrep, error) {
			p, err := s.prepareShards(job, k)
			if err == nil {
				st.effective.Store(int32(len(p.plan.Bands)))
			}
			return p, err
		})
		if s.outcomes != nil {
			st.eco = sync.OnceValues(func() (*ecoInfo, error) {
				p, err := st.prep()
				if err != nil {
					return nil, err
				}
				return s.ecoPrep(job, p)
			})
		}
		e.states[j] = st
		for b := 0; b < k; b++ {
			e.pool = append(e.pool, e.traceJob(j, b, k, s.bandPoolJob(job, st, b, class, k)))
			e.classes = append(e.classes, class)
			e.origin = append(e.origin, jobOrigin{owner: j, band: b})
		}
	}
	return e
}

// traceName labels a job's trace: the caller's tag, else the design
// reference, else a generic label for explicit layouts.
func traceName(job BatchJob) string {
	switch {
	case job.Tag != "":
		return job.Tag
	case job.Design != "":
		return job.Design
	}
	return "job"
}

// traceDetail annotates a job's legalize span with what ran.
func traceDetail(job BatchJob) string {
	if job.Design != "" {
		return fmt.Sprintf("%s@%g %s", job.Design, job.effectiveScale(), job.Engine)
	}
	return job.Engine.String()
}

// traceJob wraps one pool closure with its trace spans: install the job's
// recorder (a tracing front door allocates one per job; a fleet worker's
// jobs arrive with a linked recorder already on the context), mark
// admission, record the scheduler queue wait, and nest the engine phase
// under a "legalize" (or per-band) span. Without a recorder from either
// source the closure runs untouched — observability off is a free no-op.
// Spans carry wall-clock telemetry only and never change what the wrapped
// job computes.
func (e *expansion) traceJob(j, band, k int, pj batch.Job[*Outcome]) batch.Job[*Outcome] {
	return func(ctx context.Context) (*Outcome, error) {
		if rec := e.recs[j]; rec != nil {
			ctx = obs.WithRecorder(ctx, rec)
		}
		rec := obs.RecorderFrom(ctx)
		if rec == nil {
			return pj(ctx)
		}
		if queued, start, ok := batch.SchedInfo(ctx); ok {
			pushed := start.Add(-queued)
			rec.MarkAdmitted(pushed)
			obs.Record(ctx, "sched-wait", "", pushed, start)
		}
		name := "legalize"
		if k > 0 {
			name = fmt.Sprintf("band %d/%d", band+1, k)
		}
		sctx, end := obs.StartSpan(ctx, name, traceDetail(e.jobs[j]))
		defer end()
		return pj(sctx)
	}
}

// padding reports whether a band slot of job j is beyond the job's
// effective band count — a padding slot the clamped plan never filled.
// Before the split exists no slot is considered padding.
func (e *expansion) padding(j, band int) bool {
	st := e.states[j]
	if st == nil {
		return false
	}
	eff := int(st.effective.Load())
	return eff > 0 && band >= eff
}

// effectiveShards resolves a job's shard count: the job's own knob, else
// the service's WithShards default, else — when WithAutoShardBytes is set —
// enough bands to bring each one's estimated footprint under the
// threshold. Negative means explicitly unsharded.
func (s *Service) effectiveShards(j BatchJob) int {
	k := j.Shards
	if k == 0 {
		k = s.shards
	}
	if k == 0 && s.autoShardBytes > 0 {
		if bytes := jobApproxBytes(j); bytes > s.autoShardBytes {
			k = int((bytes + s.autoShardBytes - 1) / s.autoShardBytes)
			if k > maxAutoShards {
				k = maxAutoShards
			}
		}
	}
	if k < 0 {
		k = 0
	}
	return k
}

// jobApproxBytes estimates the job's layout footprint without generating
// it: explicit layouts report their resident size, design references are
// sized from the spec's scaled cell count. Unknown designs report 0 — the
// job then takes the plain path and fails with the usual lookup error.
func jobApproxBytes(j BatchJob) int64 {
	if j.Layout != nil {
		return j.Layout.ApproxBytes()
	}
	spec, ok := gen.ByName(j.Design)
	if !ok {
		return 0
	}
	return spec.ApproxBytes(j.effectiveScale())
}

// prepareShards resolves a sharded job's layout and splits it into its
// band layouts. For design-reference jobs on a caching service the whole
// decomposition is memoized by (design, scale, seed, bands, halo), so a
// warm sharded job skips the re-split (and the layout resolution under it):
// splitting is pure, band layouts are shared safely because engines
// legalize clones, and Stitch builds a fresh layout without mutating its
// inputs.
func (s *Service) prepareShards(job BatchJob, k int) (*shardPrep, error) {
	halo := s.effectiveHalo(job)
	if s.layouts != nil && job.Layout == nil {
		if key, ok := shardMemoKey(job, k, halo); ok {
			v, err := s.layouts.Do(key, func() (any, int64, error) {
				p, err := s.splitShards(job, k, halo)
				if err != nil {
					return nil, 0, err
				}
				// The prep's resident cost is its band layouts; the whole-die
				// layout is accounted by its own cache entry.
				var size int64
				for _, b := range p.bands {
					size += b.ApproxBytes()
				}
				return p, size, nil
			})
			if err != nil {
				return nil, err
			}
			return v.(*shardPrep), nil
		}
	}
	return s.splitShards(job, k, halo)
}

// effectiveHalo resolves a job's seam-reassignment window: the job's own
// knob, else the service default; negative disables the halo.
func (s *Service) effectiveHalo(job BatchJob) int {
	halo := job.ShardHalo
	if halo == 0 {
		halo = s.shardHalo
	}
	if halo < 0 {
		halo = 0
	}
	return halo
}

// shardMemoKey is the cache key of one sharded job's decomposition —
// (design, scale, seed) via the spec's layout key, plus the band count and
// halo that shape the split. It doubles as the base of the fleet routing
// key, so the worker a band hashes to is the worker that saw the same
// decomposition before. Explicit-layout jobs and eco jobs (whose input is
// the base perturbed by this request's edits, not the named design) have no
// stable identity to key on (ok = false); eco band routing hashes the band
// content instead (see bandPoolJob).
func shardMemoKey(job BatchJob, k, halo int) (string, bool) {
	if job.Layout != nil || job.isEco() {
		return "", false
	}
	spec, ok := gen.ByName(job.Design)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s|bands=%d|halo=%d", spec.CacheKey(job.effectiveScale()), k, halo), true
}

// splitShards is the uncached decomposition: resolve the base, apply any
// edits, plan the bands, split.
func (s *Service) splitShards(job BatchJob, k, halo int) (*shardPrep, error) {
	l, base, err := s.resolveInput(job)
	if err != nil {
		return nil, err
	}
	plan, err := shard.PlanBands(l, k, halo)
	if err != nil {
		return nil, fmt.Errorf("flex: shard plan: %w", err)
	}
	bands, err := shard.Split(l, plan)
	if err != nil {
		return nil, fmt.Errorf("flex: shard split: %w", err)
	}
	return &shardPrep{layout: l, base: base, plan: plan, bands: bands}, nil
}

// bandJob builds the pool closure for one band of a sharded job: wait for
// the shared split, then run the job's engine phase (legalizeOnDevice, the
// same recipe as a plain job) on this band. Bands beyond the clamped plan
// return (nil, nil) and are dropped at fold time.
func bandJob(job BatchJob, st *shardState, b int) batch.Job[*Outcome] {
	return func(ctx context.Context) (*Outcome, error) {
		p, err := st.prep()
		if err != nil {
			return nil, err
		}
		if b >= len(p.bands) {
			return nil, nil
		}
		if out, ok, err := st.cachedBand(ctx, job, b); ok || err != nil {
			return out, err
		}
		return job.legalizeOnDevice(ctx, p.bands[b])
	}
}

// shardCollector folds the pool's completion-order results back into
// submission-level BatchResults: plain jobs pass through as they land,
// sharded jobs emit once their last band lands. It is driven from a single
// goroutine (the batch's collecting loop), so it needs no locking.
type shardCollector struct {
	e       *expansion
	pending [][]batch.Result[*Outcome] // per sharded job, one slot per band
	got     []int
	results []BatchResult // per submitted job, valid once emitted
	sharded int           // jobs that took the shard path
	onShard func(job int, r BatchResult)
	emit    func(BatchResult)
}

func newShardCollector(e *expansion, onShard func(int, BatchResult), emit func(BatchResult)) *shardCollector {
	c := &shardCollector{
		e:       e,
		pending: make([][]batch.Result[*Outcome], len(e.jobs)),
		got:     make([]int, len(e.jobs)),
		results: make([]BatchResult, len(e.jobs)),
		onShard: onShard,
		emit:    emit,
	}
	for j, k := range e.shards {
		if k > 0 {
			c.pending[j] = make([]batch.Result[*Outcome], k)
			c.sharded++
		}
	}
	return c
}

// observe consumes one pool result, emitting the owning job's BatchResult
// when it becomes complete.
func (c *shardCollector) observe(r batch.Result[*Outcome]) {
	o := c.e.origin[r.Index]
	j := o.owner
	k := c.e.shards[j]
	if k == 0 {
		br := c.e.jobs[j].toResult(r)
		br.Index = j
		c.sealTrace(j, &br)
		c.results[j] = br
		c.emit(br)
		return
	}
	c.pending[j][o.band] = r
	c.got[j]++
	// Padding slots (beyond the clamped plan) never surface: neither their
	// successful (nil, nil) returns nor skips from a canceled batch are
	// real bands.
	if c.onShard != nil && !c.e.padding(j, o.band) && !(r.Value == nil && r.Err == nil) {
		sr := c.e.jobs[j].toResult(r)
		sr.Index = o.band
		c.onShard(j, sr)
	}
	if c.got[j] == k {
		br := c.fold(j)
		c.sealTrace(j, &br)
		c.results[j] = br
		c.emit(br)
	}
}

// sealTrace stamps the finished job's trace identity onto its result and
// hands the recorder to the service's tracer. The span tree is snapshotted
// here — after the job's last band folded — so the result carries the
// complete tree, remote subtrees included. A no-op when the service does
// not trace: the result's bytes are identical either way.
func (c *shardCollector) sealTrace(j int, br *BatchResult) {
	rec := c.e.recs[j]
	if rec == nil {
		return
	}
	br.TraceID = rec.ID()
	br.Spans = rec.Spans()
	if c.e.svc.tracer != nil {
		c.e.svc.tracer.Add(rec)
	}
}

// fold merges one sharded job's band results: stitch the band layouts back
// into the original die, re-measure quality against the original global
// placement, take the slowest band's modeled seconds (the bands ran in
// parallel), and sum the queueing and device statistics.
func (c *shardCollector) fold(j int) BatchResult {
	job := c.e.jobs[j]
	rs := c.pending[j]
	br := BatchResult{Index: j, Tag: job.Tag}
	var firstErr, firstSkip error
	for b, r := range rs {
		// Padding slots beyond the clamped plan carry no band: skip them
		// whether they completed with (nil, nil) or were canceled before
		// starting — a skipped padding slot must not mark finished real
		// bands as a skipped job.
		if c.e.padding(j, b) || (r.Value == nil && r.Err == nil) {
			continue
		}
		sr := job.toResult(r)
		sr.Index = b
		br.Shards = append(br.Shards, sr)
		br.SchedWait += r.SchedWait
		br.DeviceWait += r.DeviceWait
		br.DeviceHold += r.DeviceHold
		br.DeviceReconfigs += r.DeviceReconfigs
		if r.Wall > br.Wall {
			br.Wall = r.Wall
		}
		switch {
		case IsBatchSkipped(r.Err):
			if firstSkip == nil {
				firstSkip = r.Err
			}
		case r.Err != nil:
			if firstErr == nil {
				firstErr = r.Err
			}
		}
	}
	if firstErr != nil {
		br.Err = firstErr
		return br
	}
	if firstSkip != nil {
		br.Err = firstSkip
		return br
	}
	// Every band succeeded, so the shared prep is memoized — this cannot
	// generate or split anew.
	p, err := c.e.states[j].prep()
	if err != nil {
		br.Err = err
		return br
	}
	bandLayouts := make([]*model.Layout, len(p.plan.Bands))
	bandOuts := make([]*Outcome, len(p.plan.Bands))
	legal := true
	modeled := 0.0
	for b := range p.plan.Bands {
		o := rs[b].Value
		bandLayouts[b] = o.Layout
		bandOuts[b] = o
		if !o.Legal {
			legal = false
		}
		if o.ModeledSeconds > modeled {
			modeled = o.ModeledSeconds
		}
	}
	var stitchStart time.Time
	if c.e.recs[j] != nil {
		//flexvet:walltime stitch span timing is trace telemetry only
		stitchStart = time.Now()
	}
	stitched, err := shard.Stitch(p.layout, p.plan, bandLayouts)
	if rec := c.e.recs[j]; rec != nil {
		//flexvet:walltime stitch span timing is trace telemetry only
		rec.Record("stitch", fmt.Sprintf("%d bands", len(bandLayouts)), stitchStart, time.Now())
	}
	if err != nil {
		br.Err = fmt.Errorf("flex: shard stitch: %w", err)
		return br
	}
	out := &Outcome{Engine: job.Engine, Layout: stitched}
	out.Metrics = model.Measure(stitched)
	out.Violations = stitched.Check(16)
	out.Legal = legal && len(out.Violations) == 0
	out.ModeledSeconds = modeled
	// Publish the finished run into the outcome cache so a repeat serves
	// from cache and a future edit against this layout splices its clean
	// bands (the eco decision memoized any errors away at band time).
	if st := c.e.states[j]; st.eco != nil {
		if info, ecoErr := st.eco(); ecoErr == nil {
			out.InputHash = info.hash
			if info.store {
				c.e.svc.storeOutcome(job, info, p, bandOuts, out)
			}
		}
	}
	br.Outcome = out
	return br
}
