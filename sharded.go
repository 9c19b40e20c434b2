package flex

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
	"github.com/flex-eda/flex/internal/shard"
)

// DefaultShardHalo is the seam-crossing reassignment window, in rows, a
// sharded job plans with when it leaves BatchJob.ShardHalo at 0.
const DefaultShardHalo = 2

// maxAutoShards caps size-triggered sharding (WithAutoShardBytes): each
// band occupies one admission slot, so an unbounded ceil(bytes/threshold)
// would let one oversized job amplify itself past the queue depth.
// Explicit BatchJob.Shards requests are not capped — the caller asked for
// exactly that expansion.
const maxAutoShards = 64

// shardPrep is one job's decomposition, computed once by whichever of its
// band jobs the pool runs first and shared by the rest. A sharded job's
// bands come from its row-band plan; an unsharded job has no plan and one
// band — its resolved input itself, so it pays no split or stitch copy.
type shardPrep struct {
	layout *Layout // the job's effective input (base with edits applied)
	base   *Layout // the pre-edit base; == layout for jobs without edits
	plan   *shard.Plan
	bands  []*Layout
}

// jobOrigin maps one pool job back to the submitted job it came from.
type jobOrigin struct {
	owner int // submitted job index
	band  int // band index within the owner
}

// shardState is one job's shared decomposition: the memoized prep plus the
// effective band count, published once a sharded job's split exists so the
// collector can tell a real band from a padding slot (a band index beyond
// what the plan could hold).
type shardState struct {
	prep      func() (*shardPrep, error)
	effective atomic.Int32 // len(plan.Bands) once split; 0 = not yet known or unsharded

	// eco is the memoized outcome-cache reuse decision (nil when the
	// service has no outcome cache): which bands may serve cached outcomes
	// instead of legalizing, and whether fold should store a fresh entry.
	eco func() (*ecoInfo, error)
}

// expansion is one submission's flattened job set. A job with effective
// shard count K contributes K pool jobs — one per planned band, padding
// slots returning (nil, nil) when the plan clamps K to what the die holds —
// and an unsharded job contributes one, plus the bookkeeping that folds
// band results back into one BatchResult per submitted job. Admission
// control counts the expanded jobs: a K-sharded job occupies K queue slots.
type expansion struct {
	svc     *Service
	jobs    []BatchJob
	shards  []int                 // per job: 0 = unsharded (one band, no plan), >= 1 = K planned bands
	pool    []batch.Job[*Outcome] // the flattened pool jobs
	classes []sched.Class         // per pool job; bands share the owner's class
	origin  []jobOrigin           // pool index -> submitted job
	states  []*shardState         // per job
	recs    []*obs.Recorder       // per job; non-nil only when the service traces
}

// classFor stamps one submitted job's scheduling class: priority, deadline
// and client straight from the job, and a board-configuration identity
// unique to (submission, job) so the reconfiguration model sees a job's
// bands as one bitstream and distinct jobs as distinct ones.
func classFor(job BatchJob, seq int64, j int) sched.Class {
	return sched.Class{
		Priority: job.Priority,
		Deadline: job.Deadline,
		Client:   job.Client,
		Job:      fmt.Sprintf("%d.%d", seq, j),
	}
}

// expand flattens one submission, deciding each job's effective shard count
// (job knob, then the auto-shard byte threshold) and stamping every pool
// job's scheduling class.
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
			e.recs[j] = obs.NewRecorder()
		}
	}
	for j := range jobs {
		job := jobs[j]
		class := classFor(job, seq, j)
		k := s.effectiveShards(job)
		e.shards[j] = k
		st := s.newShardState(job, k)
		e.states[j] = st
		for b := 0; b < max(k, 1); b++ {
			e.pool = append(e.pool, e.traceJob(j, b, k, s.bandJob(job, st, class, k, b)))
			e.classes = append(e.classes, class)
			e.origin = append(e.origin, jobOrigin{owner: j, band: b})
		}
	}
	return e
}

// newShardState memoizes one job's decomposition and, on a service with an
// outcome cache, its reuse decision.
func (s *Service) newShardState(job BatchJob, k int) *shardState {
	st := &shardState{}
	st.prep = sync.OnceValues(func() (*shardPrep, error) {
		if k == 0 {
			return s.prepareOne(job)
		}
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
	return st
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
	eff := int(e.states[j].effective.Load())
	return eff > 0 && band >= eff
}

// effectiveShards resolves a job's shard count: the job's own knob, else —
// when WithAutoShardBytes is set — enough bands to bring each one's
// estimated footprint under the threshold. Negative means explicitly
// unsharded.
func (s *Service) effectiveShards(j BatchJob) int {
	k := j.Shards
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
// job then stays unsharded and fails with the usual lookup error.
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
	halo := job.effectiveHalo()
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

// effectiveHalo resolves the job's seam-reassignment window: 0 means
// DefaultShardHalo; negative disables the halo.
func (j BatchJob) effectiveHalo() int {
	switch {
	case j.ShardHalo == 0:
		return DefaultShardHalo
	case j.ShardHalo < 0:
		return 0
	}
	return j.ShardHalo
}

// shardMemoKey is the cache key of one sharded job's decomposition —
// (design, scale, seed) via the spec's layout key, plus the band count and
// halo that shape the split. It doubles as the base of the fleet routing
// key (see routingKey), so the worker a band hashes to is the worker that
// saw the same decomposition before. Explicit-layout jobs and eco jobs
// (whose input is the base perturbed by this request's edits, not the named
// design) have no stable identity to key on (ok = false).
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

// prepareOne is an unsharded job's decomposition: no plan, one band that is
// the resolved input. On a coordinator an unedited design reference leaves
// the band nil so it travels to the fleet by name and the worker serves it
// from its own layout cache; the coordinator then resolves the reference
// only when the outcome cache needs its content hash, and otherwise just
// validates it, so an unknown design fails with the single-process error.
func (s *Service) prepareOne(job BatchJob) (*shardPrep, error) {
	byName := s.router != nil && job.Layout == nil && !job.isEco()
	if byName && s.outcomes == nil {
		if _, err := lookupSpec(job.Design, job.effectiveScale()); err != nil {
			return nil, err
		}
		return &shardPrep{bands: []*Layout{nil}}, nil
	}
	l, base, err := s.resolveInput(job)
	if err != nil {
		return nil, err
	}
	band := l
	if byName {
		band = nil
	}
	return &shardPrep{layout: l, base: base, bands: []*Layout{band}}, nil
}

// bandJob builds the one pool closure every band of every job runs: wait
// for the job's shared decomposition, serve the band from the outcome cache
// when the job's reuse decision allows, else hand it to the service's
// executor — the local engine phase, or a fleet round trip on a
// coordinator. Bands beyond a clamped plan return (nil, nil) and are dropped
// at fold time.
func (s *Service) bandJob(job BatchJob, st *shardState, class sched.Class, k, b int) batch.Job[*Outcome] {
	return func(ctx context.Context) (*Outcome, error) {
		p, err := st.prep()
		if err != nil {
			return nil, err
		}
		if b >= len(p.bands) {
			return nil, nil
		}
		var info *ecoInfo
		if st.eco != nil {
			if info, err = st.eco(); err != nil {
				return nil, err
			}
			if info.reuse[b] {
				return servedBand(ctx, job, info, b), nil
			}
			if s.router == nil {
				// The local executor replays the matched band's steps and
				// records its own for the entry the fold stores.
				trail := info.bandTrail(b)
				defer s.sealTrail(trail)
				ctx = engine.WithTrail(ctx, trail)
			}
		}
		return s.exec(ctx, job, p.bands[b], s.routingKey(job, class, k, b, info))
	}
}

// shardCollector folds the pool's completion-order results back into
// submission-level BatchResults: each job emits once its last band lands.
// It is driven from a single goroutine (the batch's collecting loop), so it
// needs no locking.
type shardCollector struct {
	e        *expansion
	pending  [][]batch.Result[*Outcome] // per job, one slot per band
	got      []int
	results  []BatchResult // per submitted job, valid once emitted
	onShard  func(job int, r BatchResult)
	onResult func(BatchResult)
	send     func(BatchResult) // Stream's channel send; nil for Submit
}

func newShardCollector(e *expansion, opt SubmitOptions, send func(BatchResult)) *shardCollector {
	c := &shardCollector{
		e:        e,
		pending:  make([][]batch.Result[*Outcome], len(e.jobs)),
		got:      make([]int, len(e.jobs)),
		results:  make([]BatchResult, len(e.jobs)),
		onShard:  opt.OnShard,
		onResult: opt.OnResult,
		send:     send,
	}
	for j, k := range e.shards {
		c.pending[j] = make([]batch.Result[*Outcome], max(k, 1))
	}
	return c
}

// observe consumes one pool result. When the owning job becomes complete it
// emits the job's BatchResult: into the service's metrics, then to the
// caller's OnResult, then to send.
func (c *shardCollector) observe(r batch.Result[*Outcome]) {
	o := c.e.origin[r.Index]
	j := o.owner
	c.pending[j][o.band] = r
	c.got[j]++
	// Padding slots (beyond the clamped plan) never surface: neither their
	// successful (nil, nil) returns nor skips from a canceled batch are
	// real bands.
	if c.onShard != nil && c.e.shards[j] > 0 && !c.e.padding(j, o.band) && !(r.Value == nil && r.Err == nil) {
		sr := c.e.jobs[j].toResult(r)
		sr.Index = o.band
		c.onShard(j, sr)
	}
	if c.got[j] == len(c.pending[j]) {
		br := c.fold(j)
		c.sealTrace(j, &br)
		c.results[j] = br
		c.e.svc.observeResult(br)
		if c.onResult != nil {
			c.onResult(br)
		}
		if c.send != nil {
			c.send(br)
		}
	}
}

// sealTrace stamps the finished job's trace identity onto its result. The
// span tree is snapshotted here — after the job's last band folded — so the
// result carries the complete tree, remote subtrees included. A no-op when
// the service does not trace: the result's bytes are identical either way.
func (c *shardCollector) sealTrace(j int, br *BatchResult) {
	rec := c.e.recs[j]
	if rec == nil {
		return
	}
	br.TraceID = rec.ID()
	br.Spans = rec.Spans()
}

// fold merges one job's band results: sum the queueing and device
// statistics, keep the slowest band's wall (the bands ran concurrently),
// and build the outcome — an unsharded job's one band is its outcome as it
// stands, a sharded job's bands stitch back into the original die — then
// publish a fresh outcome into the outcome cache.
func (c *shardCollector) fold(j int) BatchResult {
	job := c.e.jobs[j]
	rs := c.pending[j]
	sharded := c.e.shards[j] > 0
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
		if sharded {
			sr := job.toResult(r)
			sr.Index = b
			br.Shards = append(br.Shards, sr)
		}
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
	bandOuts := make([]*Outcome, len(p.bands))
	for b := range bandOuts {
		bandOuts[b] = rs[b].Value
	}
	out := bandOuts[0]
	if sharded {
		if out, err = c.stitch(j, p, bandOuts); err != nil {
			br.Err = err
			return br
		}
	}
	// Publish the finished run into the outcome cache so a repeat serves
	// from cache and a future edit against this layout splices its clean
	// bands (the eco decision memoized any errors away at band time).
	if st := c.e.states[j]; st.eco != nil {
		if info, ecoErr := st.eco(); ecoErr == nil {
			out.InputHash = info.hash
			if info.store {
				c.e.svc.storeOutcome(job, info, p, bandOuts)
			}
		}
	}
	br.Outcome = out
	return br
}

// stitch merges a sharded job's band outcomes into the original die:
// quality re-measured against the original global placement, legal only
// when every band was and the whole die checks clean, and the slowest
// band's modeled seconds (the bands ran in parallel).
func (c *shardCollector) stitch(j int, p *shardPrep, bandOuts []*Outcome) (*Outcome, error) {
	bandLayouts := make([]*model.Layout, len(bandOuts))
	legal := true
	modeled := 0.0
	for b, o := range bandOuts {
		bandLayouts[b] = o.Layout
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
		return nil, fmt.Errorf("flex: shard stitch: %w", err)
	}
	return rebuildOutcome(stitched, legal, modeled, c.e.jobs[j].Engine), nil
}
