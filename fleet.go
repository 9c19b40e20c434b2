package flex

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/fleet"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// WithWorkersList turns the service into a fleet coordinator: every job —
// and every band of a sharded job — is executed remotely on one of the
// named worker base URLs (flexserve -mode worker peers) instead of on a
// local engine. Admission, scheduling, caching, sharding and stitching all
// stay local, so the front-door semantics and the result bytes are
// identical to a single-process service; only where the engine phase runs
// moves. Bands route to workers by consistent hashing on their cache key,
// so a design's repeat traffic lands on workers that already hold its
// layouts. An empty list leaves the service single-process.
func WithWorkersList(addrs ...string) ServiceOption {
	return func(c *serviceConfig) { c.fleetWorkers = append(c.fleetWorkers, addrs...) }
}

// WithFleetTimeout bounds one remote job attempt end to end, connection
// through result body (default 2 minutes). On expiry the attempt counts as
// a retryable failure: the band is re-routed to another worker with the
// slow node excluded.
func WithFleetTimeout(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.fleetTimeout = d }
}

// WithFleetInflight bounds concurrently outstanding remote jobs per worker
// (default 16) — the per-node backpressure under the coordinator's own
// scheduler ordering.
func WithFleetInflight(n int) ServiceOption {
	return func(c *serviceConfig) { c.fleetInflight = n }
}

// WithFleetRetries sets the number of additional attempts after a
// retryable remote failure, each excluding the nodes that already failed
// (default: every other worker once).
func WithFleetRetries(n int) ServiceOption {
	return func(c *serviceConfig) { c.fleetRetries = n }
}

// FleetStats is the coordinator's routing snapshot in ServiceStats: one
// row per worker plus fleet-wide totals. RemoteWall is cumulative band
// round-trip wall time — transport plus the worker's whole job — and is
// telemetry only: the modeled seconds of the results themselves travel
// inside Outcomes and never include it.
type FleetStats struct {
	// Nodes lists every configured worker in configuration order.
	Nodes []FleetNodeStats
	// Routed counts jobs completed remotely; Retried extra attempts after
	// a retryable failure; Excluded node exclusions those retries made.
	Routed, Retried, Excluded int64
	// RemoteWall is total remote round-trip wall time (RTT telemetry).
	RemoteWall time.Duration
}

// FleetNodeStats is one worker's liveness and traffic.
type FleetNodeStats struct {
	// Addr is the worker's base URL; State its health as the router last
	// saw it: "alive", "draining", or "dead".
	Addr  string
	State string
	// Routed counts jobs this node completed; Failed its failed attempts;
	// Inflight its currently outstanding jobs.
	Routed   int64
	Failed   int64
	Inflight int
}

// fleetStats mirrors the router's snapshot onto the public structs.
func fleetStats(rs fleet.RouterStats) *FleetStats {
	st := &FleetStats{
		Routed: rs.Routed, Retried: rs.Retried, Excluded: rs.Excluded,
		RemoteWall: rs.RemoteWall,
	}
	for _, n := range rs.Nodes {
		st.Nodes = append(st.Nodes, FleetNodeStats{
			Addr: n.Addr, State: n.State,
			Routed: n.Routed, Failed: n.Failed, Inflight: n.Inflight,
		})
	}
	return st
}

// engineWireName maps an Engine to its canonical wire name (the inverse of
// ParseEngine, from the same table).
func engineWireName(e Engine) (string, error) {
	en, err := engine.Lookup(engine.Kind(e))
	if err != nil {
		return "", err
	}
	return en.Name, nil
}

// routingKey is the consistent-hash key band b of a job routes by on a
// coordinator: the band's input content hash when the outcome cache computed
// one, so repeat and edited traffic lands on workers that legalized the same
// bytes before; else the job's decomposition key for design references, so
// a design's traffic keeps hitting workers that already generated it; else
// the owner's batch identity (explicit layouts, which no worker caches).
// The band suffix spreads a sharded job across the fleet, each band stably.
func (s *Service) routingKey(job BatchJob, class sched.Class, k, b int, info *ecoInfo) string {
	if info != nil {
		return "band|" + info.bandIn[b]
	}
	base := "job=" + class.Job
	if key, ok := shardMemoKey(job, k, s.effectiveHalo(job)); ok {
		base = key
	}
	return fmt.Sprintf("%s#band=%d", base, b)
}

// remoteJob serializes one unit of work for the wire: band layouts (and
// explicit layouts) travel inline as flexpl text, design references travel
// by name so the worker can serve them from its own layout cache. The
// job's scheduling class rides along — priority and client verbatim, the
// absolute deadline converted to time-remaining so the worker re-anchors
// it on its own clock.
func (s *Service) remoteJob(job BatchJob, layout *Layout) (fleet.Job, error) {
	name, err := engineWireName(job.Engine)
	if err != nil {
		return fleet.Job{}, err
	}
	wire := fleet.Job{
		Engine:        name,
		Threads:       job.Options.Threads,
		SlidingWindow: job.Options.SlidingWindow,
		OnePE:         job.Options.OnePE,
		OffloadInsert: job.Options.OffloadInsert,
		Priority:      job.Priority,
		Client:        job.Client,
	}
	switch {
	case layout != nil:
		var buf strings.Builder
		if err := model.Encode(&buf, layout); err != nil {
			return fleet.Job{}, err
		}
		wire.Layout = buf.String()
	default:
		wire.Design = job.Design
		wire.Scale = job.effectiveScale()
	}
	if !job.Deadline.IsZero() {
		// Absolute deadlines do not survive a host hop (clock skew); the
		// wire carries time-remaining instead.
		//flexvet:walltime converting the job's absolute deadline to the wire's relative remaining time
		remaining := time.Until(job.Deadline)
		if remaining <= 0 {
			return fleet.Job{}, sched.ErrDeadlineExceeded
		}
		if wire.DeadlineMs = remaining.Milliseconds(); wire.DeadlineMs < 1 {
			// Sub-millisecond remainders truncate to 0 = "no deadline";
			// keep the deadline present (and almost immediate) instead.
			wire.DeadlineMs = 1
		}
	}
	return wire, nil
}

// remoteLegalize is a coordinator's executor: it ships one band (layout !=
// nil: that band or explicit layout; nil: the job's design reference) to
// the fleet and rebuilds the Outcome locally. Only the layout bytes, the
// engine's legal verdict, and the modeled seconds come from the wire —
// rebuildOutcome recomputes metrics and violations with the same pure
// functions a local engine uses, so a remote result is byte-identical to a
// local one. Remote jobs skip the local device model entirely (the boards
// their engines occupy are the workers'); worker-side device telemetry
// folds into this job's device accounting.
func (s *Service) remoteLegalize(ctx context.Context, job BatchJob, layout *Layout, key string) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wire, err := s.remoteJob(job, layout)
	if err != nil {
		return nil, err
	}
	res, err := s.router.Do(ctx, key, wire)
	if err != nil {
		return nil, err
	}
	l, err := model.Decode(strings.NewReader(res.Layout))
	if err != nil {
		return nil, fmt.Errorf("flex: fleet result layout: %w", err)
	}
	batch.AddRemoteDeviceUsage(ctx,
		time.Duration(res.DeviceWaitMs*float64(time.Millisecond)),
		time.Duration(res.DeviceHoldMs*float64(time.Millisecond)),
		res.DeviceReconfigs)
	// Graft the worker-side span subtree into this job's trace, so a fleet
	// job yields one coherent tree under one ID (a free no-op without a
	// recorder on the context).
	obs.AttachRemote(ctx, res.Spans)
	return rebuildOutcome(l, res.Legal, res.ModeledSeconds, job.Engine), nil
}

// FleetWorker adapts a Service into a fleet worker: the HTTP job protocol
// on the outside, the service's own admission/scheduling/engine path on
// the inside. flexserve -mode worker mounts Handler next to the normal
// API, so a worker is a full flexserve that additionally takes fleet
// traffic. Wrap a plain single-process service — a worker whose service is
// itself a coordinator (WithWorkersList) would forward its jobs onward.
type FleetWorker struct {
	w *fleet.Worker
}

// NewFleetWorker wraps s in the fleet worker protocol.
func NewFleetWorker(s *Service) *FleetWorker {
	return &FleetWorker{w: fleet.NewWorker(&serviceExecutor{svc: s})}
}

// Handler returns the worker's HTTP surface (POST /w/v1/job,
// GET /w/v1/health).
func (fw *FleetWorker) Handler() http.Handler { return fw.w.Handler() }

// Drain flips the worker into draining: health and job requests both
// answer 503 so coordinators re-route, while jobs already executing
// finish. Call it when graceful shutdown begins.
func (fw *FleetWorker) Drain() { fw.w.Drain() }

// Draining reports whether Drain has been called.
func (fw *FleetWorker) Draining() bool { return fw.w.Draining() }

// SetLogger routes the worker protocol's structured logs (job receipt at
// debug, drain transitions at warn) to log. Nil restores the default
// logger. Logs go to stderr and never affect result bytes.
func (fw *FleetWorker) SetLogger(log *slog.Logger) { fw.w.SetLogger(log) }

// serviceExecutor is the fleet.Executor over a Service.
type serviceExecutor struct {
	svc *Service
}

// parse validates one wire job into a BatchJob, classifying every
// rejection as fleet.ErrInvalidJob so the worker answers 400 and the
// coordinator does not retry it elsewhere.
func (x *serviceExecutor) parse(j fleet.Job) (BatchJob, error) {
	engine, err := ParseEngine(j.Engine)
	if err != nil {
		return BatchJob{}, fmt.Errorf("%w: %v", fleet.ErrInvalidJob, err)
	}
	job := BatchJob{
		Engine: engine,
		Options: Options{
			Threads:       j.Threads,
			SlidingWindow: j.SlidingWindow,
			OnePE:         j.OnePE,
			OffloadInsert: j.OffloadInsert,
		},
		Priority: j.Priority,
		Client:   j.Client,
	}
	switch {
	case j.Layout != "" && j.Design != "":
		return BatchJob{}, fmt.Errorf("%w: job carries both a layout and a design reference", fleet.ErrInvalidJob)
	case j.Layout != "":
		l, err := model.Decode(strings.NewReader(j.Layout))
		if err != nil {
			return BatchJob{}, fmt.Errorf("%w: %v", fleet.ErrInvalidJob, err)
		}
		job.Layout = l
	case j.Design != "":
		if _, err := lookupSpec(j.Design, j.Scale); err != nil {
			return BatchJob{}, fmt.Errorf("%w: %v", fleet.ErrInvalidJob, err)
		}
		job.Design, job.Scale = j.Design, j.Scale
	default:
		return BatchJob{}, fmt.Errorf("%w: job carries neither a layout nor a design reference", fleet.ErrInvalidJob)
	}
	if j.DeadlineMs > 0 {
		// Re-anchor the coordinator's relative deadline on this host's
		// clock, so the worker's own scheduler applies EDF ordering and
		// expiry to it exactly as it would to a local client's deadline.
		//flexvet:walltime re-anchoring the wire's relative deadline on the worker's clock
		job.Deadline = time.Now().Add(time.Duration(j.DeadlineMs) * time.Millisecond)
	}
	return job, nil
}

// Execute runs one wire job through the service and serializes the
// outcome. Deadline expiry — in the worker's queue or mid-flight — maps to
// sched.ErrDeadlineExceeded so the coordinator sees a typed deadline, not
// a generic failure; admission shedding maps to the retryable fleet
// sentinels.
func (x *serviceExecutor) Execute(ctx context.Context, j fleet.Job) (*fleet.Result, error) {
	job, err := x.parse(j)
	if err != nil {
		return nil, err
	}
	sum, err := x.svc.Submit(ctx, []BatchJob{job}, SubmitOptions{})
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClientOverloaded):
			return nil, fmt.Errorf("%w: %v", fleet.ErrOverloaded, err)
		case errors.Is(err, ErrServiceClosed):
			return nil, fmt.Errorf("%w: %v", fleet.ErrDraining, err)
		}
		if sum == nil {
			return nil, err
		}
	}
	br := sum.Results[0]
	if br.Err != nil {
		if IsBatchSkipped(br.Err) && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The job's re-anchored deadline expired before the pool
			// started it: a deadline, not a cancellation.
			return nil, fmt.Errorf("skipped past deadline: %w", sched.ErrDeadlineExceeded)
		}
		return nil, br.Err
	}
	var buf strings.Builder
	if err := model.Encode(&buf, br.Outcome.Layout); err != nil {
		return nil, err
	}
	return &fleet.Result{
		Layout:          buf.String(),
		Legal:           br.Outcome.Legal,
		ModeledSeconds:  br.Outcome.ModeledSeconds,
		SchedWaitMs:     float64(br.SchedWait) / float64(time.Millisecond),
		DeviceWaitMs:    float64(br.DeviceWait) / float64(time.Millisecond),
		DeviceHoldMs:    float64(br.DeviceHold) / float64(time.Millisecond),
		DeviceReconfigs: br.DeviceReconfigs,
	}, nil
}

// Load snapshots the service's occupancy for /w/v1/health.
func (x *serviceExecutor) Load() fleet.Load {
	st := x.svc.Stats()
	return fleet.Load{
		QueuedJobs:      st.QueuedJobs,
		Workers:         st.Workers,
		DeviceWait:      st.DeviceWait,
		DeviceHold:      st.DeviceHold,
		DeviceAcquires:  st.DeviceAcquires,
		DeviceReconfigs: st.Reconfigs,
	}
}
