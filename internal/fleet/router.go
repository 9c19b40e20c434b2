package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// Node states as seen by the router. Passive observation (a failed POST)
// and active probing (GET /w/v1/health) both move a node between them;
// only probing moves a node back to alive.
const (
	nodeAlive int32 = iota
	nodeDraining
	nodeDead
)

func stateName(s int32) string {
	switch s {
	case nodeDraining:
		return "draining"
	case nodeDead:
		return "dead"
	default:
		return "alive"
	}
}

// RouterConfig configures a coordinator-side Router.
type RouterConfig struct {
	// Workers are the fleet's node base URLs (e.g. "http://10.0.0.2:8080").
	Workers []string
	// Timeout bounds one job attempt end to end (default 2 minutes —
	// paper-scale bands are slow, but a hung worker must not wedge a
	// band forever).
	Timeout time.Duration
	// Inflight bounds concurrently outstanding jobs per worker
	// (default 16). The coordinator's scheduler pops jobs in policy
	// order; this bound is the per-node backpressure under it.
	Inflight int
	// Retries is the number of additional attempts after a retryable
	// failure, each excluding all previously failed nodes
	// (default len(Workers)-1: try every node once).
	Retries int
	// ProbeInterval is the period of background health probing
	// (default 2s; <0 disables, for tests that drive state passively).
	ProbeInterval time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Metrics, when set, receives per-attempt RPC telemetry: the
	// flex_fleet_rpc_seconds latency histogram and the
	// flex_fleet_rpc_total attempt counter, both labeled by node.
	Metrics *obs.Registry
}

// Router is the coordinator's view of the fleet: it owns the consistent-
// hash ring, per-node health and in-flight bounds, and the retry-with-
// exclusion loop that mirrors batch's skip semantics — a band bounced by
// a failed or draining node is retried on the next ring owner with the
// failure excluded, and the routing never changes result bytes.
type Router struct {
	ring    *ring
	nodes   map[string]*node
	client  *http.Client
	timeout time.Duration
	retries int

	routed, retried, excluded atomic.Int64
	remoteWallNs              atomic.Int64

	probeCancel context.CancelFunc
	probeDone   chan struct{}
	closeOnce   sync.Once
}

type node struct {
	addr   string
	sem    chan struct{} // in-flight bound
	state  atomic.Int32
	routed atomic.Int64 // successful jobs
	failed atomic.Int64 // failed attempts

	// Per-node RPC telemetry (nil-safe no-ops without a registry).
	rpcSeconds obs.Histogram
	rpcTotal   obs.Counter
}

// NewRouter builds a router over cfg.Workers and starts its health
// prober. Close it to stop probing.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Inflight <= 0 {
		cfg.Inflight = 16
	}
	if cfg.Retries <= 0 {
		cfg.Retries = len(cfg.Workers) - 1
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	r := &Router{
		ring:    newRing(cfg.Workers),
		nodes:   make(map[string]*node, len(cfg.Workers)),
		client:  cfg.Client,
		timeout: cfg.Timeout,
		retries: cfg.Retries,
	}
	for _, addr := range cfg.Workers {
		r.nodes[addr] = &node{
			addr: addr, sem: make(chan struct{}, cfg.Inflight),
			rpcSeconds: cfg.Metrics.Histogram("flex_fleet_rpc_seconds",
				"Fleet job RPC round-trip latency per attempt.",
				obs.LatencyBuckets, obs.Label{Key: "node", Value: addr}),
			rpcTotal: cfg.Metrics.Counter("flex_fleet_rpc_total",
				"Fleet job RPC attempts.", obs.Label{Key: "node", Value: addr}),
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.probeCancel = cancel
	r.probeDone = make(chan struct{})
	if cfg.ProbeInterval > 0 {
		go r.probeLoop(ctx, cfg.ProbeInterval)
	} else {
		close(r.probeDone)
	}
	return r
}

// Close stops the health prober. In-flight Do calls are unaffected.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.probeCancel()
		<-r.probeDone
	})
}

// Do routes one job by its cache key: consistent-hash pick, bounded
// in-flight POST, and on a retryable failure (transport error, draining,
// overload, attempt timeout) the failed node is excluded and the next
// ring owner tried, up to the retry budget. Non-retryable failures —
// invalid job, deadline exceeded, engine failure — return immediately
// with a typed error.
func (r *Router) Do(ctx context.Context, key string, job Job) (*Result, error) {
	job.Key = key
	body, err := json.Marshal(job)
	if err != nil {
		return nil, fmt.Errorf("%w: encode: %v", ErrInvalidJob, err)
	}
	excluded := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		addr := r.pickNode(key, excluded)
		if addr == "" {
			break
		}
		if attempt > 0 {
			r.retried.Add(1)
		}
		res, retryable, err := r.attempt(ctx, r.nodes[addr], body)
		if err == nil {
			r.routed.Add(1)
			return res, nil
		}
		lastErr = err
		if !retryable || ctx.Err() != nil {
			return nil, err
		}
		excluded[addr] = true
		r.excluded.Add(1)
	}
	if lastErr == nil {
		return nil, ErrNoWorkers
	}
	return nil, fmt.Errorf("%w: %v", ErrNoWorkers, lastErr)
}

// pickNode prefers live nodes; if health has excluded every candidate it
// falls back to any node this job has not itself failed on — a stale
// "dead" mark must not strand work the node could still serve.
func (r *Router) pickNode(key string, jobExcluded map[string]bool) string {
	unhealthy := make(map[string]bool, len(r.nodes))
	for addr, n := range r.nodes {
		if jobExcluded[addr] || n.state.Load() != nodeAlive {
			unhealthy[addr] = true
		}
	}
	if addr := r.ring.pick(key, unhealthy); addr != "" {
		return addr
	}
	return r.ring.pick(key, jobExcluded)
}

// attempt POSTs the job to one node. The bool reports whether the
// failure is retryable on another node.
func (r *Router) attempt(ctx context.Context, n *node, body []byte) (*Result, bool, error) {
	select {
	case n.sem <- struct{}{}:
		defer func() { <-n.sem }()
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}

	actx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, n.addr+"/w/v1/job", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rec := obs.RecorderFrom(ctx); rec != nil {
		// Propagate the trace across the wire: the worker opens a linked
		// recorder under this ID and ships its spans back in the result.
		req.Header.Set(TraceHeader, rec.ID())
	}

	// Band RTT: wall time of the remote call, reported in fleet stats as
	// the wall half of the modeled-vs-wall split (BENCHMARKING.md), plus
	// the per-attempt fleet-rpc span and RPC latency histogram.
	//flexvet:walltime band RTT telemetry for fleet stats
	start := time.Now()
	resp, err := r.client.Do(req)
	defer func() {
		//flexvet:walltime band RTT telemetry for fleet stats and RPC spans/metrics
		rtt := time.Since(start)
		r.remoteWallNs.Add(int64(rtt))
		obs.Record(ctx, "fleet-rpc", n.addr, start, start.Add(rtt))
		n.rpcSeconds.Observe(rtt.Seconds())
		n.rpcTotal.Inc()
	}()
	if err != nil {
		n.failed.Add(1)
		if ctx.Err() != nil {
			// The caller's own context ended — not the node's fault and
			// not retryable.
			return nil, false, ctx.Err()
		}
		if actx.Err() != nil {
			// Per-attempt timeout: the node may just be slow — exclude
			// it for this job without declaring it dead.
			return nil, true, fmt.Errorf("fleet: %s: attempt timed out: %w", n.addr, err)
		}
		// Transport failure: connection refused/reset — the node is gone
		// until a probe says otherwise.
		n.state.Store(nodeDead)
		return nil, true, fmt.Errorf("fleet: %s: %w", n.addr, err)
	}
	//flexvet:close response body fully consumed; close error carries no result
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusOK {
		var res Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			n.failed.Add(1)
			// A torn response usually means the worker died mid-write.
			n.state.Store(nodeDead)
			return nil, true, fmt.Errorf("fleet: %s: decode result: %w", n.addr, err)
		}
		n.routed.Add(1)
		return &res, false, nil
	}

	n.failed.Add(1)
	var eb errorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if jerr := json.Unmarshal(raw, &eb); jerr != nil || eb.Error == "" {
		eb.Error = fmt.Sprintf("http %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	switch {
	case eb.Code == codeDeadline || resp.StatusCode == http.StatusGatewayTimeout:
		// The job's own deadline expired on the worker: surface the
		// scheduler's typed error, not a transport failure.
		return nil, false, fmt.Errorf("fleet: %s: %s: %w", n.addr, eb.Error, sched.ErrDeadlineExceeded)
	case eb.Code == codeDraining || resp.StatusCode == http.StatusServiceUnavailable:
		n.state.Store(nodeDraining)
		return nil, true, fmt.Errorf("fleet: %s: %s: %w", n.addr, eb.Error, ErrDraining)
	case eb.Code == codeOverloaded || resp.StatusCode == http.StatusTooManyRequests:
		// Transient: retry elsewhere but leave the node alive.
		return nil, true, fmt.Errorf("fleet: %s: %s: %w", n.addr, eb.Error, ErrOverloaded)
	case eb.Code == codeInvalid || resp.StatusCode == http.StatusBadRequest:
		return nil, false, fmt.Errorf("fleet: %s: %s: %w", n.addr, eb.Error, ErrInvalidJob)
	default:
		return nil, false, fmt.Errorf("fleet: %s: job failed: %s", n.addr, eb.Error)
	}
}

// probeLoop polls every node's /w/v1/health on a fixed period, promoting
// recovered nodes back to alive and demoting draining/dead ones — the
// active half of health tracking (Do's failure marking is the passive
// half).
func (r *Router) probeLoop(ctx context.Context, interval time.Duration) {
	defer close(r.probeDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, n := range r.nodes {
			r.probe(ctx, n)
		}
	}
}

func (r *Router) probe(ctx context.Context, n *node) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, n.addr+"/w/v1/health", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		n.state.Store(nodeDead)
		return
	}
	//flexvet:close health body is drained for connection reuse; close error is health-neutral
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10)) //nolint:errcheck // drain for reuse
	switch resp.StatusCode {
	case http.StatusOK:
		n.state.Store(nodeAlive)
	case http.StatusServiceUnavailable:
		n.state.Store(nodeDraining)
	default:
		n.state.Store(nodeDead)
	}
}

// RouterStats is the coordinator's routing snapshot (flex.FleetStats, the
// fleet block of /v1/stats): one row per worker plus fleet-wide totals.
// RemoteWall is cumulative band round-trip wall time — transport plus the
// worker's whole job — and is telemetry only: the modeled seconds of the
// results themselves travel inside Outcomes and never include it.
type RouterStats struct {
	// Nodes lists every configured worker in configuration order.
	Nodes []NodeStats
	// Routed counts jobs completed remotely; Retried extra attempts after
	// a retryable failure; Excluded node exclusions those retries made.
	Routed, Retried, Excluded int64
	// RemoteWall is total remote round-trip wall time (RTT telemetry).
	RemoteWall time.Duration
}

// NodeStats is one worker's liveness and traffic.
type NodeStats struct {
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

// Stats snapshots the router. Nodes appear in ring-configuration order.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Routed:     r.routed.Load(),
		Retried:    r.retried.Load(),
		Excluded:   r.excluded.Load(),
		RemoteWall: time.Duration(r.remoteWallNs.Load()),
	}
	for _, addr := range r.ring.nodes {
		n := r.nodes[addr]
		st.Nodes = append(st.Nodes, NodeStats{
			Addr:     n.addr,
			State:    stateName(n.state.Load()),
			Routed:   n.routed.Load(),
			Failed:   n.failed.Load(),
			Inflight: len(n.sem),
		})
	}
	return st
}
