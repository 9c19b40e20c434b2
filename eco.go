package flex

import (
	"context"
	"fmt"
	"os"
	"slices"

	"github.com/flex-eda/flex/internal/cache"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/shard"
)

// Edit is one perturbation of a job's base layout — move, insert or delete
// a movable cell (see BatchJob.Edits). It is internal/eco's Edit verbatim.
type Edit = eco.Edit

// The edit operations a BatchJob.Edits entry may carry.
const (
	// EditMove repositions a movable cell's global-placement anchor.
	EditMove = eco.OpMove
	// EditInsert adds a new movable cell.
	EditInsert = eco.OpInsert
	// EditDelete removes a movable cell.
	EditDelete = eco.OpDelete
)

// LayoutHash returns the hex SHA-256 of the layout's canonical flexpl
// bytes — the content address the outcome cache keys on, and the handle a
// BatchJob.BaseHash (or flexserve "base" field) references a layout by.
func LayoutHash(l *Layout) string { return eco.Hash(l) }

// WithOutcomeCacheBytes turns on the outcome cache: finished legalizations
// are memoized up to b resident bytes, keyed by (input-layout content hash,
// engine, options, band count, halo), so a repeated request is served from
// cache and an edited request (BatchJob.Edits) re-legalizes only the row
// bands whose input changed, splicing the cached base outcome's other bands
// in. Entries also hold, in memory only, each band's step-by-step record of
// its run, so a changed band's re-run replays every placement step the
// edit does not reach; an edit's entry shares the layouts and records of
// the bands it served with the entry it matched, and every entry counts
// the layouts and records it references against b. b <= 0 disables the
// cache, the default (WithCacheDir alone also enables it, with a 256 MiB
// default bound).
func WithOutcomeCacheBytes(b int64) ServiceOption {
	return func(c *serviceConfig) { c.outcomeBytes = b }
}

// WithCacheDir persists the outcome cache as content-addressed files under
// dir (one JSON file per entry, named by the hex SHA-256 of its key,
// written via temp file + atomic rename): entries load on start so a
// restarted node is warm, lookups that miss memory fall back to disk, and
// eviction is memory-only — files survive for the next start. A file that
// fails to read or decode is skipped with a warning, never served, and the
// recomputed value replaces it. Warnings go to the WithLogger logger at
// warn level, or to stderr without one. The bands' step records are never
// written to disk, so after a restart an edit against a base loaded from
// disk re-runs its changed bands in full.
func WithCacheDir(dir string) ServiceOption {
	return func(c *serviceConfig) { c.cacheDir = dir }
}

// isEco reports whether the job perturbs or references a base layout.
func (j BatchJob) isEco() bool { return len(j.Edits) > 0 || j.BaseHash != "" }

// optionsKey canonicalizes the engine options into the outcome key's
// configuration component.
func optionsKey(o Options) string {
	return fmt.Sprintf("t=%d|w=%d|pe1=%t|off=%t", o.Threads, o.SlidingWindow, o.OnePE, o.OffloadInsert)
}

// outcomeKey builds the cache key of legalizing a layout with the given
// content hash under the job's engine/options and row-band plan (nil for an
// unsharded job: bands=0, halo=0).
func (s *Service) outcomeKey(job BatchJob, hash string, plan *shard.Plan) (string, error) {
	name, err := engineWireName(job.Engine)
	if err != nil {
		return "", err
	}
	bands, halo := 0, 0
	if plan != nil {
		bands, halo = len(plan.Bands), job.effectiveHalo()
	}
	return eco.Key(hash, name, optionsKey(job.Options), bands, halo), nil
}

// resolveBase returns the job's base layout — the placement its edits apply
// to: the cached layout named by BaseHash, else the explicit Layout, else
// the generated Design.
func (s *Service) resolveBase(job BatchJob) (*Layout, error) {
	if job.BaseHash != "" {
		if s.outcomes == nil {
			return nil, fmt.Errorf("flex: job references base %s but the service has no outcome cache (WithOutcomeCacheBytes / WithCacheDir)", job.BaseHash)
		}
		v, ok := s.outcomes.Get(eco.LayoutKey(job.BaseHash))
		if !ok {
			return nil, fmt.Errorf("flex: unknown base layout %s", job.BaseHash)
		}
		return v.(*Layout), nil
	}
	return job.resolveLayout(s.generate)
}

// resolveInput returns the job's effective input layout — the base with the
// job's edits applied — alongside the base itself (they are the same layout
// for jobs without edits).
func (s *Service) resolveInput(job BatchJob) (input, base *Layout, err error) {
	base, err = s.resolveBase(job)
	if err != nil {
		return nil, nil, err
	}
	if len(job.Edits) == 0 {
		return base, base, nil
	}
	input, err = eco.Apply(base, job.Edits)
	if err != nil {
		return nil, nil, err
	}
	return input, base, nil
}

// newOutcomeCache builds the service's outcome cache from the config, or
// nil when disabled. A cache directory that cannot be initialized degrades
// to a memory-only cache with a warning — serving beats persistence. Each
// skipped file warns once, through the service's logger when it has one.
func newOutcomeCache(cfg *serviceConfig) *cache.Disk {
	bytes := cfg.outcomeBytes
	if bytes <= 0 {
		if cfg.cacheDir == "" {
			return nil
		}
		bytes = 256 << 20
	}
	warn := func(path string, err error) {
		fmt.Fprintf(os.Stderr, "flex: outcome cache: %s: %v\n", path, err)
	}
	if log := cfg.logger; log != nil {
		warn = func(path string, err error) {
			log.Warn("outcome cache", "path", path, "err", err)
		}
	}
	d, err := cache.NewDisk(bytes, cfg.cacheDir, eco.EncodeValue, eco.DecodeValue, warn)
	if err != nil {
		warn(cfg.cacheDir, err)
		d, _ = cache.NewDisk(bytes, "", eco.EncodeValue, eco.DecodeValue, warn)
	}
	return d
}

// ecoInfo is one job's incremental-reuse decision, computed once next to
// the job's decomposition: the input's content identity, the per-band input
// hashes, the cached entry the job matched (its own or its base's), and
// which bands may reuse that entry's outcomes instead of re-legalizing.
type ecoInfo struct {
	hash   string     // input layout content hash
	key    string     // outcome cache key for this run
	bandIn []string   // per-band input layout hashes
	entry  *eco.Entry // the matched entry; nil when none was cached
	reuse  []bool     // per band: serve entry.Bands[b] instead of legalizing
	store  bool       // fold should store a fresh entry (false on an exact hit)
	// trails holds each band's step record for the fold to store: the
	// sealed trail of a band run by the local executor, the entry's trail
	// for a served band, nil for a band run on the fleet. Band b's job
	// writes trails[b] before its result reaches the fold.
	trails []*mgl.Trail
}

// ecoPrep computes the reuse decision for one job. A job reuses the entry
// cached under its own input's key (an exact repeat); an edited job without
// one matches its base layout's cached outcome. Either way band i serves
// the entry's band i exactly when their input hashes are equal, since an
// engine's result is a pure function of its input bytes, and every other
// band re-runs — so an incremental result is byte-identical to the full
// re-run by construction. A band that re-runs still replays the placement
// steps of the entry's band i that its edit does not reach (bandTrail). An
// edited job falls back to a full run when the base outcome is cold, has a
// different band count, or no band's input hash matches. An unsharded job is one band whose input is the whole layout: its key keeps
// bands=0 and its band hash is the input hash, so it hashes once and
// reuses only on an exact repeat, while an unsharded edit replays the
// unsharded base's steps.
func (s *Service) ecoPrep(job BatchJob, p *shardPrep) (*ecoInfo, error) {
	nb := len(p.bands)
	info := &ecoInfo{
		hash:   eco.Hash(p.layout),
		bandIn: make([]string, nb),
		reuse:  make([]bool, nb),
		trails: make([]*mgl.Trail, nb),
	}
	if p.plan == nil {
		info.bandIn[0] = info.hash
	} else {
		for i, b := range p.bands {
			info.bandIn[i] = eco.Hash(b)
		}
	}
	key, err := s.outcomeKey(job, info.hash, p.plan)
	if err != nil {
		return nil, err
	}
	info.key = key

	ent := s.lookupEntry(key, nb)
	exact := ent != nil
	if !exact && len(job.Edits) > 0 {
		ent = s.baseEntry(job, p)
	}
	info.entry = ent
	for i, in := range info.bandIn {
		info.reuse[i] = ent != nil && ent.Bands[i].InHash == in
	}
	// An exact repeat that reuses every band has nothing new to store.
	info.store = !exact || slices.Contains(info.reuse, false)
	s.accountEco(job, slices.Contains(info.reuse, true))
	return info, nil
}

// bandTrail returns a fresh trail for band b's run on the local executor,
// replaying from the matched entry's band b when it has a record, and
// keeps it for the fold.
func (info *ecoInfo) bandTrail(b int) *mgl.Trail {
	var from *mgl.Trail
	if info.entry != nil {
		from = info.entry.Bands[b].Trail
	}
	info.trails[b] = mgl.NewTrail(from)
	return info.trails[b]
}

// sealTrail seals a band run's trail and counts its steps by path.
func (s *Service) sealTrail(t *mgl.Trail) {
	t.Seal()
	s.stepsReplayed.Add(float64(t.Replayed()))
	s.stepsRun.Add(float64(t.Ran()))
}

// baseEntry returns the cached outcome of the job's base layout under the
// job's band count, or nil when there is none.
func (s *Service) baseEntry(job BatchJob, p *shardPrep) *eco.Entry {
	baseHash := job.BaseHash
	if baseHash == "" {
		baseHash = eco.Hash(p.base)
	}
	bkey, err := s.outcomeKey(job, baseHash, p.plan)
	if err != nil {
		return nil
	}
	return s.lookupEntry(bkey, len(p.bands))
}

// lookupEntry fetches a cached outcome entry with the given band count;
// anything else is treated as a miss.
func (s *Service) lookupEntry(key string, bands int) *eco.Entry {
	v, ok := s.outcomes.Get(key)
	if !ok {
		return nil
	}
	ent, ok := v.(*eco.Entry)
	if !ok || len(ent.Bands) != bands {
		return nil
	}
	return ent
}

// accountEco counts one job's outcome-cache decision: a hit when cached
// bands serve it (wholly or partly), and for an eco job the path it took.
func (s *Service) accountEco(job BatchJob, reused bool) {
	if reused {
		s.outcomeHits.Inc()
	} else {
		s.outcomeMisses.Inc()
	}
	if job.isEco() {
		if reused {
			s.ecoIncremental.Inc()
		} else {
			s.ecoFallback.Inc()
		}
	}
}

// rebuildOutcome turns a legalized layout that did not come straight from a
// local engine — a fleet reply, a cached band, a stitched die — into an
// Outcome. Metrics and violations are recomputed with the same pure
// functions every engine uses, and the supplied legal verdict (the wire's,
// the store's, or the bands') counts only when the layout checks clean, so
// a faulty worker or a tampered cache file can never report Legal beside
// violations. An engine's own verdict already implies a clean check, so an
// honest result is byte-identical to the run that produced it.
func rebuildOutcome(l *model.Layout, legal bool, modeled float64, engine Engine) *Outcome {
	out := &Outcome{
		Engine:         engine,
		Layout:         l,
		ModeledSeconds: modeled,
	}
	out.Metrics = model.Measure(l)
	out.Violations = l.Check(16)
	out.Legal = legal && len(out.Violations) == 0
	return out
}

// storeOutcome publishes one finished run into the outcome cache: the
// per-band entry under the run's key, and the input layout under its own
// content address so future requests can name it as a base. A band served
// from the matched entry shares that entry's layout, since entries are
// never written again; a band that ran is cloned into the entry, because
// the caller owns the result layouts it was handed.
func (s *Service) storeOutcome(job BatchJob, info *ecoInfo, p *shardPrep, bandOuts []*Outcome) {
	name, err := engineWireName(job.Engine)
	if err != nil {
		return
	}
	ent := &eco.Entry{Engine: name, Options: optionsKey(job.Options)}
	for b, o := range bandOuts {
		band := eco.BandOutcome{
			InHash:         info.bandIn[b],
			Legal:          o.Legal,
			ModeledSeconds: o.ModeledSeconds,
			Trail:          info.trails[b],
		}
		if info.reuse[b] {
			band.Layout = info.entry.Bands[b].Layout
		} else {
			band.Layout = o.Layout.Clone()
		}
		ent.Bands = append(ent.Bands, band)
	}
	s.outcomes.Add(info.key, ent, ent.ApproxBytes())
	s.outcomes.Add(eco.LayoutKey(info.hash), p.layout, p.layout.ApproxBytes())
}

// servedBand serves band b from the job's cached entry: the stored layout
// is cloned (cache entries are shared; callers own their results) and
// rebuilt as rebuildOutcome does for every boundary. A served band records
// an "eco-splice" span on the job's trace — the reuse filter's footprint in
// the span tree.
func servedBand(ctx context.Context, job BatchJob, info *ecoInfo, b int) *Outcome {
	_, end := obs.StartSpan(ctx, "eco-splice", fmt.Sprintf("band %d from cached outcome", b))
	defer end()
	bo := &info.entry.Bands[b]
	info.trails[b] = bo.Trail
	return rebuildOutcome(bo.Layout.Clone(), bo.Legal, bo.ModeledSeconds, job.Engine)
}
