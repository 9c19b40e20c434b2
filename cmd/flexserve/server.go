package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/obs"
)

// jobRequest is one legalization job in a POST /v1/legalize body. Exactly
// one of Design (a built-in benchmark reference, generated server-side at
// Scale) or Layout (an inline flexpl payload) must be set.
type jobRequest struct {
	Design  string  `json:"design,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Layout  string  `json:"layout,omitempty"`
	Engine  string  `json:"engine,omitempty"`  // default "flex"
	Threads int     `json:"threads,omitempty"` // MGL-MT's worker count (0 = 8); negative rejected
	Tag     string  `json:"tag,omitempty"`
	// Shards splits the job's layout into that many horizontal row bands
	// legalized as independent pool jobs and stitched into one result
	// (bounded by the server's -max-shards; each band occupies one queue
	// slot). 0 = unsharded, negative rejected.
	Shards int `json:"shards,omitempty"`
	// Halo is the sharding seam window in rows (0 = library default).
	Halo int `json:"halo,omitempty"`
	// Priority orders the job against everything else queued on the
	// service (higher runs earlier; bounded to [-100, 100]). The default
	// scheduler ages waiting jobs, so low priorities are delayed, never
	// starved.
	Priority int `json:"priority,omitempty"`
	// DeadlineMs is a relative completion target in milliseconds from
	// request arrival; a job still queued when it expires fails fast in
	// its result line instead of running. 0 = no deadline; at most
	// maxDeadlineMs.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// Client is the submitting tenant: per-client quotas, fair sharing,
	// and the per-client admission bound (429) key off it. Empty is the
	// shared anonymous client.
	Client string `json:"client,omitempty"`
	// Base names the job's input layout by content hash — the layoutHash a
	// previous result line reported. It requires the server's outcome
	// cache (-outcome-cache-mb / -cache-dir) and is mutually exclusive
	// with design and layout; a hash the server has never legalized fails
	// the job in its result line.
	Base string `json:"base,omitempty"`
	// Edits perturbs the job's input (base, layout, or generated design)
	// before legalization: cell moves, inserts, deletes. On a sharded job
	// against a cached base, only the dirty row bands re-legalize; the
	// rest splice from the cached outcome, byte-identical to a full run.
	Edits []flex.Edit `json:"edits,omitempty"`
}

// legalizeRequest is the POST /v1/legalize body.
type legalizeRequest struct {
	Jobs []jobRequest `json:"jobs"`
	// FailFast cancels the remaining jobs after the first error.
	FailFast bool `json:"failFast,omitempty"`
	// IncludeLayout echoes each successful job's legalized layout as
	// flexpl text in its result line (large!).
	IncludeLayout bool `json:"includeLayout,omitempty"`
}

// resultLine is one NDJSON line of the streaming response: a job result in
// completion order, then one final summary line with "done": true.
type resultLine struct {
	Index          int     `json:"index"`
	Tag            string  `json:"tag,omitempty"`
	Error          string  `json:"error,omitempty"`
	Skipped        bool    `json:"skipped,omitempty"`
	Engine         string  `json:"engine,omitempty"`
	Legal          *bool   `json:"legal,omitempty"`
	Violations     int     `json:"violations,omitempty"`
	Movable        int     `json:"movable,omitempty"`
	AveDis         float64 `json:"aveDis,omitempty"`
	MaxDis         float64 `json:"maxDis,omitempty"`
	ModeledSeconds float64 `json:"modeledSeconds,omitempty"`
	WallMs         float64 `json:"wallMs,omitempty"`
	DeviceWaitMs   float64 `json:"deviceWaitMs,omitempty"`
	DeviceHoldMs   float64 `json:"deviceHoldMs,omitempty"`
	// Shards is the effective band count of a sharded job (the plan may
	// clamp the requested count to what the die holds); 0 for unsharded.
	Shards int `json:"shards,omitempty"`
	// SchedWaitMs is the time the job queued for a worker under the
	// service's scheduler; Reconfigs counts modeled board
	// reprogrammings its FPGA acquisitions incurred.
	SchedWaitMs float64 `json:"schedWaitMs,omitempty"`
	Reconfigs   int     `json:"reconfigs,omitempty"`
	Layout      string  `json:"layout,omitempty"`
	// LayoutHash is the content hash of the job's input layout — the
	// handle a later request's "base" field may reference. Present only on
	// servers with an outcome cache.
	LayoutHash string `json:"layoutHash,omitempty"`
	// Trace is the job's 16-hex trace ID, present only when the server runs
	// with -trace: the same ID the job's spans — local and on fleet workers
	// — group under, and the handle for correlating this row with worker
	// logs. Pure telemetry: everything else on the line is byte-identical
	// with tracing off.
	Trace string `json:"trace,omitempty"`
}

// summaryLine closes every NDJSON stream.
type summaryLine struct {
	Done           bool    `json:"done"`
	Jobs           int     `json:"jobs"`
	Errors         int     `json:"errors"`
	Skipped        int     `json:"skipped"`
	ModeledSeconds float64 `json:"modeledSeconds"`
	WallMs         float64 `json:"wallMs"`
}

// errorBody is the JSON error envelope of non-streaming failures.
type errorBody struct {
	Error string `json:"error"`
}

// statsResponse mirrors flex.ServiceStats with durations in milliseconds,
// so curl consumers aren't handed nanosecond integers.
type statsResponse struct {
	Batches    int64 `json:"batches"`
	Jobs       int64 `json:"jobs"`
	Errors     int64 `json:"errors"`
	Skipped    int64 `json:"skipped"`
	Overloaded int64 `json:"overloaded"`
	// ShardedJobs counts jobs that took the row-band shard path.
	ShardedJobs int64 `json:"shardedJobs"`
	Workers     int   `json:"workers"`
	FPGAs       int   `json:"fpgas"` // 0 = unlimited
	QueueDepth  int   `json:"queueDepth"`
	// QueuedJobs is the current queue occupancy (admitted and not yet
	// delivered, with each band of a sharded job counted separately).
	// RetryAfterSeconds is the 429 Retry-After a request rejected right
	// now would carry — ceil(queuedJobs / workers) seconds, clamped to
	// [1, 60] — so clients can see the congestion estimate before
	// tripping it.
	QueuedJobs        int `json:"queuedJobs"`
	RetryAfterSeconds int `json:"retryAfterSeconds"`
	// Scheduler names the active queue policy; queuedByPriority buckets
	// the jobs currently waiting for a worker by priority level (JSON
	// object keyed by the decimal level), and queuedByClient/
	// runningByClient give the per-tenant picture the quotas act on.
	Scheduler        string         `json:"scheduler"`
	QueuedByPriority map[int]int    `json:"queuedByPriority"`
	QueuedByClient   map[string]int `json:"queuedByClient"`
	RunningByClient  map[string]int `json:"runningByClient"`
	// ClientQuota/ClientQueueDepth echo the per-client bounds (0 =
	// unlimited); clientOverloaded counts submissions a per-client bound
	// rejected with 429.
	ClientQuota      int   `json:"clientQuota"`
	ClientQueueDepth int   `json:"clientQueueDepth"`
	ClientOverloaded int64 `json:"clientOverloaded"`
	// ReconfigMs is the modeled board-programming delay per configuration
	// swap; reconfigs/reconfigTimeMs total the swaps charged so far.
	ReconfigMs      float64 `json:"reconfigMs"`
	Reconfigs       int     `json:"reconfigs"`
	ReconfigTimeMs  float64 `json:"reconfigTimeMs"`
	CacheHits       int64   `json:"cacheHits"`
	CacheMisses     int64   `json:"cacheMisses"`
	CacheHitRate    float64 `json:"cacheHitRate"`
	CacheEvictions  int64   `json:"cacheEvictions"`
	CacheEntries    int     `json:"cacheEntries"`
	CacheBytes      int64   `json:"cacheBytes"`
	CacheMaxBytes   int64   `json:"cacheMaxBytes"`
	DeviceWaitMs    float64 `json:"deviceWaitMs"`
	DeviceHoldMs    float64 `json:"deviceHoldMs"`
	DeviceAcquires  int     `json:"deviceAcquires"`
	DeviceContended int     `json:"deviceContended"`
	// Outcome-cache accounting (zero unless -outcome-cache-mb or
	// -cache-dir is set): incremental counts edit jobs that spliced cached
	// bands; fallbacks edit jobs that ran in full (base outcome cold, a
	// different band count, or every band's input changed); outcomeHits jobs
	// served wholly or partly from a cached outcome; outcomeDiskHits
	// lookups that re-warmed from -cache-dir files; outcomeLoaded entries
	// restored at start; outcomeErrors corrupt files skipped.
	Incremental     int64 `json:"incremental"`
	Fallbacks       int64 `json:"fallbacks"`
	OutcomeHits     int64 `json:"outcomeHits"`
	OutcomeMisses   int64 `json:"outcomeMisses"`
	OutcomeEntries  int   `json:"outcomeEntries"`
	OutcomeBytes    int64 `json:"outcomeBytes"`
	OutcomeDiskHits int64 `json:"outcomeDiskHits"`
	OutcomeLoaded   int64 `json:"outcomeLoaded"`
	OutcomeErrors   int64 `json:"outcomeErrors"`
	// Fleet is the coordinator's routing snapshot: present only when the
	// server was started with -mode coordinator.
	Fleet *fleetStatsResponse `json:"fleet,omitempty"`
}

// fleetStatsResponse mirrors flex.FleetStats for /v1/stats consumers: one
// row per configured worker plus fleet-wide routing totals.
// remoteWallMs is cumulative band round-trip wall time — telemetry only,
// never part of any modeled result.
type fleetStatsResponse struct {
	Nodes        []fleetNodeResponse `json:"nodes"`
	Routed       int64               `json:"routed"`
	Retried      int64               `json:"retried"`
	Excluded     int64               `json:"excluded"`
	RemoteWallMs float64             `json:"remoteWallMs"`
}

// fleetNodeResponse is one worker's liveness and traffic as the router
// last saw it (state: alive, draining, or dead).
type fleetNodeResponse struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Routed   int64  `json:"routed"`
	Failed   int64  `json:"failed"`
	Inflight int    `json:"inflight"`
}

// server is the HTTP front end over one long-lived flex.Service.
type server struct {
	svc       *flex.Service
	fleet     *flex.FleetWorker // non-nil only in -mode worker
	maxBody   int64
	maxScale  float64
	maxShards int
	workers   int             // the service's fixed pool size
	knownSet  map[string]bool // valid design names, for up-front 400s
	draining  atomic.Bool
	mux       *http.ServeMux

	// Observability (see obsConfig): metrics holds the server's two gauges
	// (the service keeps every count); log is never nil. All telemetry —
	// request IDs, gauges and warn lines never influence response bytes.
	metrics *obs.Registry
	log     *slog.Logger
	trace   bool
	reqSeq  atomic.Int64
}

// obsConfig is the server's observability wiring. The zero value —
// the test default and the library-equivalent of running without the
// observability flags — logs through slog.Default, attaches no trace IDs
// and hides pprof.
type obsConfig struct {
	// log receives the server's structured request logging (rejections at
	// warn, per-job span summaries at debug). nil = slog.Default().
	log *slog.Logger
	// trace stamps each NDJSON result row with its job's trace ID.
	trace bool
	// pprof mounts the /debug/pprof/* profiling endpoints (flag-gated:
	// profiling handlers on a public port are an operator's opt-in).
	pprof bool
}

// newServer routes the serving API over svc. maxBody bounds request bodies
// in bytes (<= 0 = 64 MiB); maxScale bounds the generation scale a design
// job may request (<= 0 = 0.2) — admission control against a stray
// paper-size generation monopolizing a worker. maxShards bounds a job's
// requested band count (<= 0 = 64): each band occupies one queue slot, so
// the bound keeps one request from amplifying itself past the admission
// control. A non-nil fw mounts the fleet worker protocol (/w/v1/*) next
// to the normal API — the -mode worker surface.
func newServer(svc *flex.Service, fw *flex.FleetWorker, maxBody int64, maxScale float64, maxShards int) *server {
	return newServerWith(svc, fw, maxBody, maxScale, maxShards, obsConfig{})
}

// newServerWith is newServer plus the observability wiring: flag-gated
// pprof, structured logging, and per-row trace IDs.
func newServerWith(svc *flex.Service, fw *flex.FleetWorker, maxBody int64, maxScale float64, maxShards int, oc obsConfig) *server {
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	if maxScale <= 0 {
		maxScale = 0.2
	}
	if maxShards <= 0 {
		maxShards = 64
	}
	log := oc.log
	if log == nil {
		log = slog.Default()
	}
	s := &server{
		svc: svc, fleet: fw,
		maxBody: maxBody, maxScale: maxScale, maxShards: maxShards,
		workers:  svc.Stats().Workers,
		knownSet: map[string]bool{},
		metrics:  obs.NewRegistry(),
		log:      log,
		trace:    oc.trace,
	}
	for _, d := range flex.Designs() {
		s.knownSet[d] = true
	}
	// The server's own metric families: the draining flag as a gauge, and
	// the build identity as a constant info gauge.
	s.metrics.GaugeFunc("flex_serve_draining_state",
		"1 once graceful shutdown has begun, 0 while serving.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	build := obs.Build()
	s.metrics.Gauge("flex_serve_build_info",
		"Build identity as constant labels; the value is always 1.",
		obs.Label{Key: "version", Value: build.Version},
		obs.Label{Key: "revision", Value: build.Revision}).Set(1)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/legalize", s.handleLegalize)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/buildinfo", s.handleBuildInfo)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if oc.pprof {
		// pprof.Index dispatches /debug/pprof/{heap,goroutine,...} itself;
		// the named handlers cover the non-lookup endpoints.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if fw != nil {
		// The fleet mux's own patterns carry the /w/v1 prefix, so no
		// StripPrefix: this mount only scopes the subtree.
		s.mux.Handle("/w/v1/", fw.Handler())
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// drain marks the process as shutting down before the listener stops
// accepting: /healthz flips to 503 so load balancers and fleet
// coordinators stop steering new traffic here while in-flight streams
// finish, and a worker's fleet surface starts bouncing jobs with the
// draining code coordinators retry elsewhere.
func (s *server) drain() {
	if !s.draining.Swap(true) {
		s.log.Warn("server draining: /healthz now answers 503 while in-flight streams finish")
	}
	if s.fleet != nil {
		s.fleet.Drain()
	}
}

func writeJSONError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// parseJobs validates the request body into batch jobs, mapping every
// malformed input to a descriptive client error.
func (s *server) parseJobs(r *http.Request) ([]flex.BatchJob, legalizeRequest, error) {
	var req legalizeRequest
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "json") {
		// Unknown fields are typos until proven otherwise: a client
		// writing "prioritee" must get a 400 naming the field, not a
		// silently deprioritized job.
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, req, fmt.Errorf("invalid JSON body: %w", err)
		}
	} else {
		// A raw flexpl payload: one job; engine/tag/shards/halo/priority/
		// client/deadlineMs come from query params.
		l, err := flex.ReadLayout(r.Body)
		if err != nil {
			return nil, req, fmt.Errorf("invalid flexpl payload: %w", err)
		}
		e, err := parseEngineDefault(r.URL.Query().Get("engine"))
		if err != nil {
			return nil, req, err
		}
		shards, err := s.parseShards(r.URL.Query().Get("shards"))
		if err != nil {
			return nil, req, err
		}
		halo, err := parseHalo(r.URL.Query().Get("halo"))
		if err != nil {
			return nil, req, err
		}
		priority, err := parsePriority(r.URL.Query().Get("priority"))
		if err != nil {
			return nil, req, err
		}
		deadline, err := parseDeadlineMs(r.URL.Query().Get("deadlineMs"))
		if err != nil {
			return nil, req, err
		}
		return []flex.BatchJob{{
			Layout: l, Engine: e, Tag: r.URL.Query().Get("tag"),
			Shards: shards, ShardHalo: halo,
			Priority: priority, Deadline: deadline,
			Client: r.URL.Query().Get("client"),
		}}, req, nil
	}
	if len(req.Jobs) == 0 {
		return nil, req, errors.New("no jobs in request")
	}
	jobs := make([]flex.BatchJob, len(req.Jobs))
	for i, jr := range req.Jobs {
		e, err := parseEngineDefault(jr.Engine)
		if err != nil {
			return nil, req, fmt.Errorf("job %d: %w", i, err)
		}
		if jr.Shards < 0 || jr.Shards > s.maxShards {
			return nil, req, fmt.Errorf("job %d: shards must be in [0, %d], got %d", i, s.maxShards, jr.Shards)
		}
		if jr.Halo < 0 {
			return nil, req, fmt.Errorf("job %d: halo must be >= 0, got %d", i, jr.Halo)
		}
		if jr.Threads < 0 {
			return nil, req, fmt.Errorf("job %d: threads must be >= 0, got %d", i, jr.Threads)
		}
		if jr.Priority < -maxPriority || jr.Priority > maxPriority {
			return nil, req, fmt.Errorf("job %d: priority must be in [%d, %d], got %d",
				i, -maxPriority, maxPriority, jr.Priority)
		}
		if jr.DeadlineMs < 0 || jr.DeadlineMs > maxDeadlineMs {
			return nil, req, fmt.Errorf("job %d: deadlineMs must be in [0, %d], got %d", i, maxDeadlineMs, jr.DeadlineMs)
		}
		j := flex.BatchJob{
			Engine:    e,
			Options:   flex.Options{Threads: jr.Threads},
			Tag:       jr.Tag,
			Scale:     jr.Scale,
			Shards:    jr.Shards,
			ShardHalo: jr.Halo,
			Priority:  jr.Priority,
			Client:    jr.Client,
		}
		if jr.DeadlineMs > 0 {
			// Relative on the wire, absolute in the scheduler: the clock
			// starts at request arrival.
			//flexvet:walltime deadlineMs is wall-relative by API contract; it gates scheduling, never result bytes
			j.Deadline = time.Now().Add(time.Duration(jr.DeadlineMs) * time.Millisecond)
		}
		for k, e := range jr.Edits {
			switch e.Op {
			case flex.EditMove, flex.EditInsert, flex.EditDelete:
			default:
				return nil, req, fmt.Errorf("job %d: edit %d: unknown op %q (want move, insert, delete)", i, k, e.Op)
			}
			if e.Cell == "" {
				return nil, req, fmt.Errorf("job %d: edit %d: cell name is required", i, k)
			}
		}
		j.Edits = jr.Edits
		sources := 0
		for _, set := range []bool{jr.Layout != "", jr.Design != "", jr.Base != ""} {
			if set {
				sources++
			}
		}
		if sources > 1 {
			return nil, req, fmt.Errorf("job %d: design, layout and base are mutually exclusive", i)
		}
		switch {
		case jr.Layout != "":
			l, err := flex.ReadLayout(strings.NewReader(jr.Layout))
			if err != nil {
				return nil, req, fmt.Errorf("job %d: invalid flexpl layout: %w", i, err)
			}
			j.Layout = l
		case jr.Base != "":
			j.BaseHash = jr.Base
		case jr.Design != "":
			if !s.knownSet[jr.Design] {
				return nil, req, fmt.Errorf("job %d: unknown design %q", i, jr.Design)
			}
			// Scale is mandatory and bounded for design refs: an omitted
			// scale must not silently default to the paper-size 1.0 that
			// the library's BatchJob convention would apply.
			if jr.Scale <= 0 {
				return nil, req, fmt.Errorf("job %d: scale must be positive (0 < scale <= %g)", i, s.maxScale)
			}
			if jr.Scale > s.maxScale {
				return nil, req, fmt.Errorf("job %d: scale %g exceeds the server's limit %g", i, jr.Scale, s.maxScale)
			}
			j.Design = jr.Design
		default:
			return nil, req, fmt.Errorf("job %d: one of design, layout or base is required", i)
		}
		jobs[i] = j
	}
	return jobs, req, nil
}

// parseEngineDefault maps an optional engine name ("" = flex).
func parseEngineDefault(name string) (flex.Engine, error) {
	if name == "" {
		return flex.EngineFLEX, nil
	}
	return flex.ParseEngine(name)
}

// parseShards maps an optional shards query parameter ("" = unsharded),
// applying the server's band-count bound.
func (s *server) parseShards(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n > s.maxShards {
		return 0, fmt.Errorf("shards must be an integer in [0, %d], got %q", s.maxShards, v)
	}
	return n, nil
}

// parseHalo maps an optional halo query parameter ("" = library default).
func parseHalo(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("halo must be a non-negative integer, got %q", v)
	}
	return n, nil
}

// maxPriority bounds the priority a request may claim, so no client can
// out-age every other tenant with an astronomic level.
const maxPriority = 100

// parsePriority maps an optional priority query parameter ("" = 0).
func parsePriority(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < -maxPriority || n > maxPriority {
		return 0, fmt.Errorf("priority must be an integer in [%d, %d], got %q", -maxPriority, maxPriority, v)
	}
	return n, nil
}

// maxDeadlineMs is the largest deadlineMs whose duration fits a
// time.Duration (about 292 years); a larger one would wrap negative and
// put the deadline in the past.
const maxDeadlineMs = int64(math.MaxInt64 / time.Millisecond)

// parseDeadlineMs maps an optional relative deadline query parameter
// ("" or "0" = none) to the absolute deadline the scheduler uses.
func parseDeadlineMs(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 || n > maxDeadlineMs {
		return time.Time{}, fmt.Errorf("deadlineMs must be in [0, %d], got %q", maxDeadlineMs, v)
	}
	if n == 0 {
		return time.Time{}, nil
	}
	//flexvet:walltime deadlineMs is wall-relative by API contract; it gates scheduling, never result bytes
	return time.Now().Add(time.Duration(n) * time.Millisecond), nil
}

// retryAfterSeconds derives a 429 Retry-After value from the backlog that
// tripped it — the service's for a full queue, the client's own for a
// per-client 429: with Q jobs admitted (queued + running, each band of a
// sharded job counted separately) over W workers, a client retrying after
// ~Q/W seconds finds capacity if jobs average about a second — the
// paper-suite ballpark at serving scales. Clamped to [1, 60] so the header
// is always a sane positive delay; it is a congestion hint, not a
// reservation.
func retryAfterSeconds(queued, workers int) int {
	secs := 1
	if workers > 0 {
		secs = (queued + workers - 1) / workers
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleLegalize admits the batch onto the service and streams one NDJSON
// result line per job in completion order, then a summary line. Admission
// failures map to 429 (overloaded) / 503 (closed); malformed payloads to
// 400. Per-job failures after admission ride in their result lines — the
// stream already committed to 200 by then.
func (s *server) handleLegalize(w http.ResponseWriter, r *http.Request) {
	rid := s.reqSeq.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	jobs, req, err := s.parseJobs(r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooLarge.Limit)
			return
		}
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now() //flexvet:walltime request wall for the NDJSON summary's wallMs telemetry field
	ch, err := s.svc.Stream(r.Context(), jobs, flex.SubmitOptions{FailFast: req.FailFast})
	var clientErr *flex.ClientOverloadedError
	switch {
	case errors.As(err, &clientErr):
		// Per-client shedding: this tenant is over its admission bound
		// while others keep submitting. Retry-After reflects the tenant's
		// own backlog.
		retryAfter := retryAfterSeconds(s.svc.ClientQueued(clientErr.Client), s.workers)
		s.log.Warn("request rejected with 429: per-client queue full",
			"req", rid, "remote", r.RemoteAddr, "client", clientErr.Client,
			"clientQueued", s.svc.ClientQueued(clientErr.Client), "retryAfterSeconds", retryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSONError(w, http.StatusTooManyRequests,
			"client %q overloaded: per-client queue full", clientErr.Client)
		return
	case errors.Is(err, flex.ErrOverloaded):
		// Retry-After scales with how deep the queue currently is — see
		// retryAfterSeconds for the estimate's meaning.
		st := s.svc.Stats()
		retryAfter := retryAfterSeconds(st.QueuedJobs, st.Workers)
		s.log.Warn("request rejected with 429: queue full",
			"req", rid, "remote", r.RemoteAddr, "jobs", len(jobs),
			"queueDepth", st.QueuedJobs, "retryAfterSeconds", retryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSONError(w, http.StatusTooManyRequests, "service overloaded: queue full")
		return
	case errors.Is(err, flex.ErrServiceClosed):
		s.log.Warn("request rejected with 503: service shutting down",
			"req", rid, "remote", r.RemoteAddr, "jobs", len(jobs))
		writeJSONError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	case err != nil:
		s.log.Warn("request failed with 500", "req", rid, "remote", r.RemoteAddr, "err", err)
		writeJSONError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var sum summaryLine
	for res := range ch {
		sum.Jobs++
		line := resultLine{Index: res.Index, Tag: res.Tag, Trace: res.TraceID}
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			s.log.Debug("job result",
				"req", rid, "index", res.Index, "tag", res.Tag,
				"trace", res.TraceID, "err", res.Err, "spans", obs.Summary(res.Spans))
		}
		switch {
		case flex.IsBatchSkipped(res.Err):
			sum.Skipped++
			line.Skipped = true
			line.Error = res.Err.Error()
		case res.Err != nil:
			sum.Errors++
			line.Error = res.Err.Error()
		default:
			o := res.Outcome
			legal := o.Legal
			line.Engine = o.Engine.String()
			line.Legal = &legal
			line.Violations = len(o.Violations)
			line.Movable = o.Metrics.Movable
			line.AveDis = o.Metrics.AveDis
			line.MaxDis = o.Metrics.MaxDis
			line.ModeledSeconds = o.ModeledSeconds
			line.WallMs = ms(res.Wall)
			line.SchedWaitMs = ms(res.SchedWait)
			line.DeviceWaitMs = ms(res.DeviceWait)
			line.DeviceHoldMs = ms(res.DeviceHold)
			line.Reconfigs = res.DeviceReconfigs
			line.Shards = len(res.Shards)
			line.LayoutHash = o.InputHash
			sum.ModeledSeconds += o.ModeledSeconds
			if req.IncludeLayout {
				var sb strings.Builder
				if err := flex.WriteLayout(&sb, o.Layout); err == nil {
					line.Layout = sb.String()
				}
			}
		}
		if err := enc.Encode(line); err != nil {
			// Client went away: drain the channel (the service needs its
			// queue slots back) and stop writing.
			for range ch {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum.Done = true
	//flexvet:walltime wallMs is service telemetry on the summary line; layouts and BENCH files never carry it
	sum.WallMs = ms(time.Since(start))
	enc.Encode(sum)
}

// handleMetrics serves Prometheus text exposition format: the service's
// families, then the server's own two gauges.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.WriteMetrics(w)
	s.metrics.WritePrometheus(w)
}

// handleBuildInfo reports the binary's module version and VCS identity so
// operators can tell which build answered, matching the identity workers
// report over the fleet Health RPC.
func (s *server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(obs.Build())
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	w.Header().Set("Content-Type", "application/json")
	resp := statsResponse{
		Batches: st.Batches, Jobs: st.Jobs, Errors: st.Errors,
		Skipped: st.Skipped, Overloaded: st.Overloaded,
		ShardedJobs: st.ShardedJobs,
		Workers:     st.Workers, FPGAs: st.FPGAs, QueueDepth: st.QueueDepth,
		QueuedJobs:        st.QueuedJobs,
		RetryAfterSeconds: retryAfterSeconds(st.QueuedJobs, st.Workers),
		Scheduler:         st.Scheduler,
		QueuedByPriority:  st.QueuedByPriority,
		QueuedByClient:    st.QueuedByClient,
		RunningByClient:   st.RunningByClient,
		ClientQuota:       st.ClientQuota,
		ClientQueueDepth:  st.ClientQueueDepth,
		ClientOverloaded:  st.ClientOverloaded,
		ReconfigMs:        ms(st.ReconfigCost),
		Reconfigs:         st.Reconfigs,
		ReconfigTimeMs:    ms(st.ReconfigTime),
		CacheHits:         st.CacheHits, CacheMisses: st.CacheMisses,
		CacheHitRate:   st.CacheHitRate(),
		CacheEvictions: st.CacheEvictions, CacheEntries: st.CacheEntries,
		CacheBytes: st.CacheBytes, CacheMaxBytes: st.CacheMaxBytes,
		DeviceWaitMs: ms(st.DeviceWait), DeviceHoldMs: ms(st.DeviceHold),
		DeviceAcquires: st.DeviceAcquires, DeviceContended: st.DeviceContended,
		Incremental: st.Incremental, Fallbacks: st.Fallbacks,
		OutcomeHits: st.OutcomeHits, OutcomeMisses: st.OutcomeMisses,
		OutcomeEntries: st.OutcomeEntries, OutcomeBytes: st.OutcomeBytes,
		OutcomeDiskHits: st.OutcomeDiskHits, OutcomeLoaded: st.OutcomeLoaded,
		OutcomeErrors: st.OutcomeErrors,
	}
	if st.Fleet != nil {
		f := &fleetStatsResponse{
			Routed: st.Fleet.Routed, Retried: st.Fleet.Retried,
			Excluded:     st.Fleet.Excluded,
			RemoteWallMs: ms(st.Fleet.RemoteWall),
		}
		for _, n := range st.Fleet.Nodes {
			f.Nodes = append(f.Nodes, fleetNodeResponse{
				Addr: n.Addr, State: n.State,
				Routed: n.Routed, Failed: n.Failed, Inflight: n.Inflight,
			})
		}
		resp.Fleet = f
	}
	json.NewEncoder(w).Encode(resp)
}

// handleHealthz is the liveness probe. It answers 503 the moment drain()
// runs — before the listener closes — so orchestrators and coordinators
// see "draining" while in-flight work finishes instead of a 200 that
// flips straight to connection-refused.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
