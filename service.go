package flex

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/cache"
	"github.com/flex-eda/flex/internal/fleet"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// ErrOverloaded rejects a submission that does not fit the service's queue
// depth (WithQueueDepth): admitted jobs — queued plus running, across every
// concurrent submission — would exceed the bound. The batch is rejected
// atomically before any job starts; callers shed load or retry later.
var ErrOverloaded = errors.New("flex: service overloaded (queue full)")

// ErrServiceClosed rejects submissions after Service.Close.
var ErrServiceClosed = errors.New("flex: service closed")

// ErrClientOverloaded rejects a submission whose jobs would push one client
// past the service's per-client admission bound (WithClientQueueDepth).
// Match it with errors.Is; the concrete error is a *ClientOverloadedError
// naming the client, so servers can shed load per tenant with an honest
// Retry-After while other tenants keep submitting.
var ErrClientOverloaded = errors.New("flex: client queue full")

// ClientOverloadedError is the concrete per-client admission rejection.
type ClientOverloadedError struct {
	// Client is the tenant whose admission bound the submission tripped.
	Client string
}

// Error implements error.
func (e *ClientOverloadedError) Error() string {
	return fmt.Sprintf("flex: client %q queue full", e.Client)
}

// Is matches ErrClientOverloaded.
func (e *ClientOverloadedError) Is(target error) bool { return target == ErrClientOverloaded }

// Scheduler selects the policy ordering every queue a job waits in — for a
// worker at admission and for a modeled FPGA board.
type Scheduler int

const (
	// SchedulerPriority is the default: jobs dequeue by effective priority
	// (BatchJob.Priority plus one level per aging step waited, so nothing
	// starves), earliest deadline first within a level, then fair share
	// across clients (fewest running jobs first), then arrival order.
	SchedulerPriority Scheduler = iota
	// SchedulerFIFO dequeues strictly in arrival order — the pre-scheduler
	// behaviour. Per-client quotas still apply; priority, deadline and
	// fairness are ignored (deadlines still expire jobs).
	SchedulerFIFO
)

// String names the scheduler as ParseScheduler accepts it.
func (s Scheduler) String() string {
	if s == SchedulerFIFO {
		return "fifo"
	}
	return "priority"
}

// ParseScheduler maps a scheduler name ("priority", "fifo"; "" = priority)
// to its Scheduler — the shared parser behind every CLI's -sched flag.
func ParseScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "priority":
		return SchedulerPriority, nil
	case "fifo":
		return SchedulerFIFO, nil
	}
	return 0, fmt.Errorf("flex: unknown scheduler %q (want priority, fifo)", name)
}

// policy resolves the internal scheduling policy.
func (s Scheduler) policy() sched.Policy {
	if s == SchedulerFIFO {
		return sched.FIFO()
	}
	return sched.Default()
}

// serviceConfig collects the functional options.
type serviceConfig struct {
	workers        int
	fpgas          int
	cacheBytes     int64
	queueDepth     int
	autoShardBytes int64
	scheduler      Scheduler
	clientQuota    int
	clientDepth    int
	reconfigCost   time.Duration

	// Outcome cache (see WithOutcomeCacheBytes and friends in eco.go).
	outcomeBytes int64
	cacheDir     string

	// Fleet coordination (see WithWorkersList and friends in fleet.go).
	fleetWorkers  []string
	fleetTimeout  time.Duration
	fleetInflight int
	fleetRetries  int

	// Observability (see WithTracing and WithLogger below).
	tracing bool
	logger  *slog.Logger
}

// ServiceOption configures NewService.
type ServiceOption func(*serviceConfig)

// WithWorkers sets the persistent worker-goroutine count bounding
// concurrently running jobs across every submission (<= 0 = GOMAXPROCS,
// the default).
func WithWorkers(n int) ServiceOption { return func(c *serviceConfig) { c.workers = n } }

// WithFPGAs sets the modeled accelerator board count every submission
// shares (0 = 1, the paper's single-card host; negative = unlimited, no
// device contention). Jobs whose engine needs the FPGA (EngineFLEX) hold
// one board for their device phase, while CPU-only engines keep
// overlapping; capacity never changes results, only wall-clock and wait
// statistics.
func WithFPGAs(k int) ServiceOption { return func(c *serviceConfig) { c.fpgas = k } }

// WithCacheBytes bounds the layout cache: generated benchmarks are memoized
// by (design, scale, seed) up to b resident bytes, so repeated jobs skip
// regeneration (cached layouts are shared safely — engines legalize
// clones). b <= 0 disables caching, the default.
func WithCacheBytes(b int64) ServiceOption { return func(c *serviceConfig) { c.cacheBytes = b } }

// WithQueueDepth bounds admitted jobs (queued + running, summed over every
// in-flight submission); a Submit or Stream that would exceed it fails with
// ErrOverloaded. 0 (the default) = unbounded. A single batch larger than
// the whole depth can never be admitted. Sharded jobs count one slot per
// band: a job split K ways occupies K of the depth.
func WithQueueDepth(d int) ServiceOption { return func(c *serviceConfig) { c.queueDepth = d } }

// WithAutoShardBytes turns on size-triggered sharding: any job whose layout
// footprint (model.Layout.ApproxBytes for explicit layouts, the spec's
// scaled estimate for design references) exceeds b bytes is split into
// enough row bands to bring each band under b — the guard that keeps a
// paper-scale design from monopolizing one worker's memory share. The
// derived band count is capped at 64 so one oversized job cannot amplify
// itself past the queue depth (each band occupies one admission slot).
// Jobs with an explicit Shards knob are unaffected. b <= 0 disables
// auto-sharding, the default.
func WithAutoShardBytes(b int64) ServiceOption {
	return func(c *serviceConfig) { c.autoShardBytes = b }
}

// WithScheduler selects the policy ordering every queue a job waits in —
// worker admission and board acquisition. The default is SchedulerPriority
// (priority + deadline + aging + fairness); SchedulerFIFO restores strict
// arrival order. Scheduling changes when jobs run, never what they compute:
// results stay byte-identical across schedulers for any fixed job set.
func WithScheduler(s Scheduler) ServiceOption {
	return func(c *serviceConfig) { c.scheduler = s }
}

// WithClientQuota caps one client's concurrently running jobs (0 = the
// default, unlimited). Jobs over quota stay queued — deferred behind the
// client's own traffic, never rejected — so one tenant cannot occupy every
// worker while others wait. A sharded job's bands each count against the
// owner's quota.
func WithClientQuota(n int) ServiceOption {
	return func(c *serviceConfig) { c.clientQuota = n }
}

// WithClientQueueDepth bounds one client's admitted jobs — queued plus
// running, each band of a sharded job counted separately (0 = the default,
// unbounded). A submission that would push any of its clients past the
// bound is rejected atomically with a *ClientOverloadedError naming the
// client; flexserve maps it to a per-client 429 whose Retry-After is
// derived from that client's actual backlog.
func WithClientQueueDepth(d int) ServiceOption {
	return func(c *serviceConfig) { c.clientDepth = d }
}

// WithReconfigCost sets the modeled FPGA reconfiguration delay: whenever a
// board's next holder runs a different job than its previous one (each
// board's first use included), the board stays busy for d before the job's
// device phase starts — the bitstream-swap cost a shared physical card
// pays. Board assignment is affinity-aware, so same-job (and same sharded
// owner) acquisitions reuse a warm board free of charge. The charge lands
// in wall-clock, DeviceStats and BatchSummary.ReconfigSeconds — never in an
// Outcome's ModeledSeconds, which stays a pure function of the design.
// 0 (the default) counts reconfigurations without charging time.
func WithReconfigCost(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.reconfigCost = d }
}

// WithTracing toggles per-job trace spans: each BatchResult then carries
// its TraceID and span tree (admission, scheduler wait, device wait/hold,
// per-band legalization, fleet RPCs, stitch), the form flexserve -trace
// serves on result rows and flexlg -trace-out collects from OnResult into
// a Chrome trace file. The service keeps no traces itself. Off by default;
// tracing never changes result bytes — spans are wall-clock telemetry
// beside the deterministic outputs.
func WithTracing(on bool) ServiceOption {
	return func(c *serviceConfig) { c.tracing = on }
}

// WithLogger routes the service's structured logging to log: one debug
// line per finished job (index, trace ID, span summary) — the per-job
// narrative behind flexserve -log-level debug — plus the outcome cache's
// warnings about skipped files and a fleet worker's drain and job-receipt
// lines (NewFleetWorker). nil (the default) disables per-job logging;
// outcome-cache warnings then go to stderr and worker lines to
// slog.Default.
func WithLogger(log *slog.Logger) ServiceOption {
	return func(c *serviceConfig) { c.logger = log }
}

// Service is the legalization front door: it owns the worker pool, the
// modeled FPGA board pool, and the layout cache that a sequence of batch
// submissions — a CLI run, an HTTP server's traffic — share, and it adds
// admission control, making it the unit of deployment for serving
// legalization traffic. Every batch runs through Submit or Stream.
//
//	svc := flex.NewService(flex.WithWorkers(8), flex.WithFPGAs(1),
//		flex.WithCacheBytes(256<<20), flex.WithQueueDepth(1024))
//	defer svc.Close()
//	sum, err := svc.Submit(ctx, jobs, flex.SubmitOptions{})
//
// All methods are safe for concurrent use. Determinism is preserved: for
// the same jobs, results are byte-identical for every workers × fpgas ×
// cache configuration.
type Service struct {
	pool    *batch.Pool
	layouts *cache.LRU // nil = caching disabled
	depth   int

	// Scheduling policy (see WithScheduler / WithClientQuota /
	// WithClientQueueDepth / WithReconfigCost).
	scheduler    Scheduler
	clientQuota  int
	clientDepth  int
	reconfigCost time.Duration
	batchSeq     atomic.Int64 // distinguishes submissions' board configs

	// autoShardBytes is the size-triggered sharding threshold
	// (WithAutoShardBytes; 0 = off).
	autoShardBytes int64

	// router is non-nil on a fleet coordinator (WithWorkersList). exec is
	// the executor every band that is not served from the outcome cache
	// runs on, picked once: the local engine phase, or remoteLegalize
	// through the router. key is the band's fleet routing key.
	router *fleet.Router
	exec   func(ctx context.Context, job BatchJob, band *Layout, key string) (*Outcome, error)

	// Observability (see WithTracing / WithLogger / WriteMetrics): each
	// count lives once, in metrics, and Stats reads it from there. All
	// telemetry — nothing here may influence result bytes.
	metrics        *obs.Registry
	tracing        bool
	logger         *slog.Logger
	queueWaitSec   obs.Histogram
	deviceWaitSec  obs.Histogram
	deviceHoldSec  obs.Histogram
	jobSeconds     obs.Histogram
	jobsOK         obs.Counter // flex_serve_jobs_total, by status
	jobsErr        obs.Counter
	jobsSkipped    obs.Counter
	shardedJobs    obs.Counter
	batches        obs.Counter
	rejectQueue    obs.Counter // flex_serve_rejects_total, by reason
	rejectClient   obs.Counter
	rejectClosed   obs.Counter
	outcomeHits    obs.Counter
	outcomeMisses  obs.Counter
	ecoIncremental obs.Counter // flex_eco_jobs_total, by path
	ecoFallback    obs.Counter
	// flex_eco_steps_total, by path: the placement steps of band runs on
	// an outcome-caching service, replayed from a trail or run.
	stepsReplayed obs.Counter
	stepsRun      obs.Counter

	// outcomes is non-nil when the outcome cache is on
	// (WithOutcomeCacheBytes / WithCacheDir): finished legalizations are
	// memoized by input-layout content hash, and edited jobs splice cached
	// clean bands instead of re-legalizing them (see eco.go).
	outcomes *cache.Disk
}

// NewService builds and starts a Service. Callers must Close it to release
// the worker pool.
func NewService(opts ...ServiceOption) *Service {
	var cfg serviceConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Service{
		pool: batch.NewPool(batch.PoolConfig{
			Workers: cfg.workers, FPGAs: cfg.fpgas, QueueDepth: cfg.queueDepth,
			Policy:      cfg.scheduler.policy(),
			ClientQuota: cfg.clientQuota, ClientDepth: cfg.clientDepth,
			ReconfigCost: cfg.reconfigCost,
		}),
		depth:          cfg.queueDepth,
		scheduler:      cfg.scheduler,
		clientQuota:    cfg.clientQuota,
		clientDepth:    cfg.clientDepth,
		reconfigCost:   cfg.reconfigCost,
		autoShardBytes: cfg.autoShardBytes,
	}
	if cfg.cacheBytes > 0 {
		s.layouts = cache.New(cfg.cacheBytes)
	}
	s.outcomes = newOutcomeCache(&cfg)
	s.instrument(&cfg)
	s.exec = func(ctx context.Context, job BatchJob, band *Layout, _ string) (*Outcome, error) {
		return legalize(ctx, band, job.Engine, job.Options)
	}
	if len(cfg.fleetWorkers) > 0 {
		s.router = fleet.NewRouter(fleet.RouterConfig{
			Workers:  cfg.fleetWorkers,
			Timeout:  cfg.fleetTimeout,
			Inflight: cfg.fleetInflight,
			Retries:  cfg.fleetRetries,
			Metrics:  s.metrics,
		})
		s.exec = s.remoteLegalize
	}
	return s
}

// instrument builds the service's registry and registers every family it
// keeps. Counts another layer owns — board reconfigurations, queue depth,
// layout-cache traffic — are sampled from that layer at scrape time, not
// counted again.
func (s *Service) instrument(cfg *serviceConfig) {
	m := obs.NewRegistry()
	s.metrics = m
	s.tracing = cfg.tracing
	s.logger = cfg.logger
	s.queueWaitSec = m.Histogram("flex_sched_queue_wait_seconds",
		"Time jobs queued for a worker goroutine under the scheduler.", obs.LatencyBuckets)
	s.deviceWaitSec = m.Histogram("flex_device_wait_seconds",
		"Time jobs queued for a modeled FPGA board.", obs.LatencyBuckets)
	s.deviceHoldSec = m.Histogram("flex_device_hold_seconds",
		"Time jobs occupied a modeled FPGA board (reconfiguration included).", obs.LatencyBuckets)
	s.jobSeconds = m.Histogram("flex_serve_job_seconds",
		"End-to-end wall time of one job, admission to result.", obs.LatencyBuckets)
	jobs := func(status string) obs.Counter {
		return m.Counter("flex_serve_jobs_total",
			"Job results delivered, by status.", obs.Label{Key: "status", Value: status})
	}
	s.jobsOK, s.jobsErr, s.jobsSkipped = jobs("ok"), jobs("error"), jobs("skipped")
	s.shardedJobs = m.Counter("flex_serve_sharded_jobs_total",
		"Jobs that took the row-band shard path.")
	s.batches = m.Counter("flex_serve_batches_total",
		"Submissions whose every job result was delivered.")
	rejects := func(reason string) obs.Counter {
		return m.Counter("flex_serve_rejects_total",
			"Submissions turned away at admission, by reason.", obs.Label{Key: "reason", Value: reason})
	}
	s.rejectQueue, s.rejectClient, s.rejectClosed = rejects("queue_full"), rejects("client_queue_full"), rejects("draining")
	s.outcomeHits = m.Counter("flex_cache_outcome_hits_total",
		"Jobs served wholly or partly from a cached outcome.")
	s.outcomeMisses = m.Counter("flex_cache_outcome_misses_total",
		"Jobs that ran with the outcome cache on but found nothing reusable.")
	ecoJobs := func(path string) obs.Counter {
		return m.Counter("flex_eco_jobs_total",
			"Edit and base-reference jobs, by the path they took.", obs.Label{Key: "path", Value: path})
	}
	s.ecoIncremental, s.ecoFallback = ecoJobs("incremental"), ecoJobs("fallback")
	steps := func(path string) obs.Counter {
		return m.Counter("flex_eco_steps_total",
			"Placement steps of band runs on an outcome-caching service, replayed from the matched band's trail or run.",
			obs.Label{Key: "path", Value: path})
	}
	s.stepsReplayed, s.stepsRun = steps("replay"), steps("run")
	m.CounterFunc("flex_device_reconfigs_total",
		"Modeled reconfigurations of this process's FPGA boards.",
		func() float64 { return float64(s.pool.Device().Stats().Reconfigs) })
	m.GaugeFunc("flex_serve_queue_depth_jobs",
		"Admitted and undelivered pool jobs right now (each band of a sharded job counted separately).",
		func() float64 { return float64(s.pool.Admitted()) })
	if s.layouts != nil {
		m.CounterFunc("flex_cache_layout_hits_total",
			"Layout cache lookups that skipped regeneration.",
			func() float64 { return float64(s.layouts.Stats().Hits) })
		m.CounterFunc("flex_cache_layout_misses_total",
			"Layout cache lookups that generated anew.",
			func() float64 { return float64(s.layouts.Stats().Misses) })
		m.GaugeFunc("flex_cache_layout_bytes",
			"Resident bytes in the layout cache.",
			func() float64 { return float64(s.layouts.Stats().Bytes) })
	}
}

// observeResult feeds one finished job into the metrics registry and the
// debug log — the single per-result observability hook on the emit path,
// after the result's bytes are final. Wall-clock latencies land in
// histograms and log lines only; nothing here touches the result.
func (s *Service) observeResult(br BatchResult) {
	switch {
	case IsBatchSkipped(br.Err):
		s.jobsSkipped.Inc()
	case br.Err != nil:
		s.jobsErr.Inc()
	default:
		s.jobsOK.Inc()
	}
	s.queueWaitSec.Observe(br.SchedWait.Seconds())
	if br.DeviceWait > 0 || br.DeviceHold > 0 {
		s.deviceWaitSec.Observe(br.DeviceWait.Seconds())
		s.deviceHoldSec.Observe(br.DeviceHold.Seconds())
	}
	s.jobSeconds.Observe(br.Wall.Seconds())
	if len(br.Shards) > 0 {
		s.shardedJobs.Inc()
	}
	if s.logger != nil && s.logger.Enabled(context.Background(), slog.LevelDebug) {
		s.logger.Debug("job finished",
			"index", br.Index, "tag", br.Tag, "trace", br.TraceID,
			"err", br.Err, "wall", br.Wall, "spans", obs.Summary(br.Spans))
	}
}

// SubmitOptions tunes one submission; the zero value is the default.
type SubmitOptions struct {
	// FailFast cancels the submission's remaining jobs after its first
	// error instead of capturing every job's error independently. Other
	// concurrent submissions are unaffected.
	FailFast bool
	// OnResult, when set, observes every job's BatchResult in completion
	// order while the batch is still running. It is called synchronously
	// on the result path; keep it fast. A sharded job is observed once,
	// when its last band lands and the stitched result is ready.
	OnResult func(BatchResult)
	// OnShard, when set, observes each band of a sharded job as it
	// finishes, before the job's stitched OnResult — the hook CLIs use for
	// per-shard progress lines. job is the submitted job's index; r.Index
	// is the band index. Called synchronously on the result path.
	OnShard func(job int, r BatchResult)
}

// Submit runs one batch on the service and blocks until every job is
// accounted for. Results keep submission order and each job's error is
// captured in its own BatchResult, so a batch is byte-identical to a
// serial run for any workers × boards × scheduler configuration — engines
// are deterministic and legalize clones of their inputs. The returned
// error is non-nil only when the batch was rejected at admission
// (ErrOverloaded, ErrClientOverloaded, ErrServiceClosed — then the summary
// is nil) or stopped early (ctx canceled while jobs were pending or in
// flight, or FailFast tripped on the first job error).
func (s *Service) Submit(ctx context.Context, jobs []BatchJob, opt SubmitOptions) (*BatchSummary, error) {
	e := s.expand(jobs)
	col := newShardCollector(e, opt, nil)
	_, st, err := batch.RunClassedOn(ctx, s.pool, e.pool, e.classes, opt.FailFast, col.observe)
	if rejected := s.admissionError(err); rejected != nil {
		return nil, rejected
	}
	// Every pool result was observed, so every submitted job has folded.
	sum := &BatchSummary{
		Results: col.results,
		Workers: st.Workers,
		Wall:    st.Wall, WorkWall: st.WorkWall,
		FPGAs:      st.FPGAs,
		DeviceWait: st.DeviceWait, DeviceHold: st.DeviceHold,
		SchedWait: st.SchedWait,
		Reconfigs: st.DeviceReconfigs,
	}
	sum.ReconfigSeconds = st.DeviceReconfigTime.Seconds()
	for _, br := range col.results {
		switch {
		case IsBatchSkipped(br.Err):
			sum.Skipped++
		case br.Err != nil:
			sum.Errors++
		case br.Outcome != nil:
			sum.ModeledSeconds += br.Outcome.ModeledSeconds
		}
	}
	// Board programming kept the modeled accelerator busy too: fold the
	// schedule's reconfiguration overhead into the batch total (zero
	// unless WithReconfigCost is set; per-Outcome modeled seconds stay
	// pure functions of the design).
	sum.ModeledSeconds += sum.ReconfigSeconds
	s.batches.Inc()
	return sum, err
}

// Stream runs one batch on the service and returns immediately with a
// channel yielding every job's BatchResult in completion order (use
// BatchResult.Index to reorder); it is closed after exactly len(jobs)
// sends. Admission failures (ErrOverloaded, ErrServiceClosed) are returned
// synchronously with a nil channel. Callers must drain the channel — cancel
// ctx to stop early; an abandoned channel pins the batch's queue slots and
// blocks Close. SubmitOptions.OnResult, when also set, observes each result
// just before it is sent.
func (s *Service) Stream(ctx context.Context, jobs []BatchJob, opt SubmitOptions) (<-chan BatchResult, error) {
	e := s.expand(jobs)
	in, err := batch.StreamClassedOn(ctx, s.pool, e.pool, e.classes, opt.FailFast)
	if rejected := s.admissionError(err); rejected != nil {
		return nil, rejected
	}
	out := make(chan BatchResult)
	go func() {
		defer close(out)
		col := newShardCollector(e, opt, func(br BatchResult) { out <- br })
		for r := range in {
			col.observe(r)
		}
		s.batches.Inc()
	}()
	return out, nil
}

// admissionError maps the pool's admission rejections onto the public
// sentinels and counts each by reason — every submission the service turns
// away, a fleet worker's included; any other error passes through as nil
// (it is a batch-level error the caller still gets alongside results).
func (s *Service) admissionError(err error) error {
	var coe *batch.ClientOverloadedError
	switch {
	case errors.As(err, &coe):
		s.rejectClient.Inc()
		return &ClientOverloadedError{Client: coe.Client}
	case errors.Is(err, batch.ErrOverloaded):
		s.rejectQueue.Inc()
		return ErrOverloaded
	case errors.Is(err, batch.ErrPoolClosed):
		s.rejectClosed.Inc()
		return ErrServiceClosed
	}
	return nil
}

// Close stops admitting work, waits for in-flight submissions to drain,
// and releases the workers. It is idempotent; submissions after Close fail
// with ErrServiceClosed.
func (s *Service) Close() error {
	s.pool.Close()
	if s.router != nil {
		// After the pool drains no job can issue a remote call, so the
		// router (and its health prober) can stop.
		s.router.Close()
	}
	return nil
}

// ServiceStats is a cumulative snapshot of a Service's life so far; its
// counts are the ones WriteMetrics serves.
type ServiceStats struct {
	// Batches counts finished submissions; Jobs job results as they are
	// delivered; Errors jobs that ran and failed; Skipped jobs canceled
	// before starting; Overloaded submissions rejected at admission (a
	// fleet worker's jobs included).
	Batches, Jobs, Errors, Skipped, Overloaded int64
	// ClientOverloaded counts submissions rejected by a per-client
	// admission bound (WithClientQueueDepth).
	ClientOverloaded int64
	// ShardedJobs counts the jobs that took the row-band shard path
	// (BatchJob.Shards or WithAutoShardBytes).
	ShardedJobs int64
	// QueuedJobs is the number of pool jobs admitted and not yet
	// delivered right now — queued plus running, with each band of a
	// sharded job counted separately. Against QueueDepth it measures how
	// close the service is to shedding load; flexserve derives its 429
	// Retry-After from it.
	QueuedJobs int
	// QueuedByPriority buckets the jobs currently waiting for a worker by
	// their base priority — the per-class queue depths /v1/stats serves.
	QueuedByPriority map[int]int
	// QueuedByClient buckets waiting jobs by client; RunningByClient
	// counts each client's jobs currently occupying a worker (the set a
	// client quota caps).
	QueuedByClient  map[string]int
	RunningByClient map[string]int
	// Workers is the persistent pool size; FPGAs the modeled board count
	// (0 = unlimited); QueueDepth the admission bound (0 = unbounded).
	Workers, FPGAs, QueueDepth int
	// Scheduler names the active policy ("priority" or "fifo");
	// ClientQuota and ClientQueueDepth echo the per-client bounds (0 =
	// unlimited); ReconfigCost the modeled per-swap board programming
	// delay.
	Scheduler                     string
	ClientQuota, ClientQueueDepth int
	ReconfigCost                  time.Duration
	// Reconfigs counts reconfigurations of this process's boards
	// (consecutive holders from different jobs, first board use included;
	// a coordinator's jobs use its workers' boards); ReconfigTime is the
	// modeled programming time they charged.
	Reconfigs    int
	ReconfigTime time.Duration
	// Cache accounting (all zero when caching is disabled): hits count
	// lookups that skipped regeneration, including waiters that joined an
	// in-flight generation.
	CacheHits, CacheMisses, CacheEvictions int64
	CacheEntries                           int
	CacheBytes, CacheMaxBytes              int64
	// Outcome-cache accounting (all zero when the outcome cache is off).
	// OutcomeHits counts jobs served wholly or partly from a cached
	// outcome; OutcomeMisses jobs that ran with the cache on but found
	// nothing reusable. Incremental counts eco jobs (edits or a base
	// reference) that spliced cached bands; Fallbacks eco jobs that had to
	// run in full — base outcome cold, a different band count, or no band
	// whose input hash matches. OutcomeDiskHits counts lookups served from
	// the -cache-dir files after missing memory; OutcomeLoaded entries
	// restored at start; OutcomeErrors corrupt or unwritable files skipped
	// with a warning.
	Incremental, Fallbacks                        int64
	OutcomeHits, OutcomeMisses                    int64
	OutcomeEntries                                int
	OutcomeBytes                                  int64
	OutcomeDiskHits, OutcomeLoaded, OutcomeErrors int64
	// Device contention, cumulative across every submission: total queue
	// time and board occupancy, acquisitions, and how many had to wait.
	DeviceWait, DeviceHold          time.Duration
	DeviceAcquires, DeviceContended int
	// Fleet is the coordinator's routing snapshot — per-worker liveness
	// and traffic, retry/exclusion totals, cumulative band round-trip
	// wall time. Nil on a single-process service.
	Fleet *FleetStats
}

// CacheHitRate returns hits / (hits + misses), or 0 before any lookup.
func (st ServiceStats) CacheHitRate() float64 {
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		return float64(st.CacheHits) / float64(total)
	}
	return 0
}

// Stats snapshots the service's cumulative counters: jobs served (Jobs
// counts results as they are delivered), cache effectiveness, device
// contention. It takes no service lock: each count is read from the
// registry WriteMetrics writes or from the subsystem that owns it.
func (s *Service) Stats() ServiceStats {
	count := func(c obs.Counter) int64 { return int64(c.Value()) }
	failed, skipped := count(s.jobsErr), count(s.jobsSkipped)
	st := ServiceStats{
		Batches:          count(s.batches),
		Jobs:             count(s.jobsOK) + failed + skipped,
		Errors:           failed,
		Skipped:          skipped,
		Overloaded:       count(s.rejectQueue),
		ClientOverloaded: count(s.rejectClient),
		ShardedJobs:      count(s.shardedJobs),
		QueuedJobs:       s.pool.Admitted(),
		Workers:          s.pool.Workers(),
		QueueDepth:       s.depth,
		Scheduler:        s.scheduler.String(),
		ClientQuota:      s.clientQuota,
		ClientQueueDepth: s.clientDepth,
		ReconfigCost:     s.reconfigCost,
		Incremental:      count(s.ecoIncremental),
		Fallbacks:        count(s.ecoFallback),
		OutcomeHits:      count(s.outcomeHits),
		OutcomeMisses:    count(s.outcomeMisses),
	}
	d := s.pool.Depths()
	st.QueuedByPriority = d.WaitingByPriority
	st.QueuedByClient = d.WaitingByClient
	st.RunningByClient = d.RunningByClient
	if s.layouts != nil {
		cs := s.layouts.Stats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
		st.CacheEntries, st.CacheBytes, st.CacheMaxBytes = cs.Entries, cs.Bytes, cs.MaxBytes
	}
	if s.outcomes != nil {
		os := s.outcomes.Stats()
		st.OutcomeEntries, st.OutcomeBytes = os.Entries, os.Bytes
		st.OutcomeDiskHits, st.OutcomeLoaded, st.OutcomeErrors = os.DiskHits, os.Loaded, os.Errors
	}
	ds := s.pool.Device().Stats()
	st.FPGAs = ds.Capacity
	st.DeviceWait, st.DeviceHold = ds.Wait, ds.Hold
	st.DeviceAcquires, st.DeviceContended = ds.Acquires, ds.Contended
	st.Reconfigs, st.ReconfigTime = ds.Reconfigs, ds.ReconfigTime
	if s.router != nil {
		rs := s.router.Stats()
		st.Fleet = &rs
	}
	return st
}

// WriteMetrics writes every metric family the service keeps in Prometheus
// text format 0.0.4 — the counts Stats reports (Jobs counted as results are
// delivered), latency histograms and live gauges; docs/OBSERVABILITY.md
// lists them. flexserve's GET /metrics serves it. Metrics are telemetry:
// observation happens after result bytes are final.
func (s *Service) WriteMetrics(w io.Writer) error { return s.metrics.WritePrometheus(w) }

// ClientQueued returns the named client's admitted-and-undelivered job
// count right now (each band of a sharded job counted separately) — the
// occupancy WithClientQueueDepth bounds, and the honest basis of a
// per-client 429 Retry-After.
func (s *Service) ClientQueued(client string) int {
	return s.pool.AdmittedByClient(client)
}

// generate resolves a job's (design, scale) reference, through the layout
// cache when one is configured. Cached layouts are shared across jobs and
// submissions — engines legalize clones, so sharing the pointer is safe.
func (s *Service) generate(design string, scale float64) (*Layout, error) {
	spec, err := lookupSpec(design, scale)
	if err != nil {
		return nil, err
	}
	return gen.Cached(s.layouts, spec, scale)
}
