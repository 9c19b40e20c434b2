// Command flexserve exposes a long-lived flex.Service over HTTP: the
// serving path of the FLEX reproduction, multiplexing many legalization
// requests over one worker pool, one modeled FPGA board pool, and one
// memoizing layout cache.
//
// Usage:
//
//	flexserve [-addr :8080] [-workers N] [-fpgas N]
//	          [-cache-mb 256] [-queue-depth 1024] [-max-body-mb 64]
//	          [-max-scale 0.2] [-max-shards 64] [-auto-shard-mb 0]
//	          [-sched priority|fifo] [-client-quota 0] [-client-queue-depth 0]
//	          [-reconfig-ms 0] [-outcome-cache-mb 0] [-cache-dir DIR]
//	          [-mode single|coordinator|worker] [-peers URL,URL,...]
//	          [-fleet-timeout-ms 120000] [-fleet-inflight 16] [-fleet-retries 0]
//	          [-log-level info] [-trace] [-pprof]
//
// Observability (all off the result path — enabling any of it never
// changes the bytes a request streams back):
//
//   - GET /metrics serves the service's metric families (the counts
//     /v1/stats reports, read from the same registry) in Prometheus text
//     exposition format: latency histograms for queue wait, device
//     wait/hold, fleet RPCs and end-to-end job time, job/batch/reject/
//     cache/ECO/reconfiguration counters, and queue-depth/cache gauges —
//     then the server's draining and build-info gauges.
//   - -trace records a per-job span tree (admit, sched-wait, device-wait,
//     device-hold, per-band legalize, fleet-rpc, stitch, eco-splice); each
//     NDJSON result line then carries a "trace" ID, and on a coordinator
//     the worker-side subtree arrives over the X-Flex-Trace header so a
//     fleet job yields one coherent tree.
//   - -log-level sets the stderr structured-log threshold (debug, info,
//     warn, error). Load shedding (429/503) and drain transitions log at
//     warn with client, queue depth and Retry-After; at debug every job
//     logs a one-line span summary.
//   - -pprof mounts net/http/pprof at /debug/pprof/* (off by default:
//     profiling endpoints are an operator surface, not a tenant one).
//   - GET /v1/buildinfo reports the module version and VCS revision of the
//     running binary; workers report the same identity over fleet health.
//
// See docs/OBSERVABILITY.md for the span model and the metric inventory.
//
// Fleet roles (-mode, default "single"):
//
//   - coordinator: every job — and every band of a sharded job — executes
//     remotely on one of the -peers worker base URLs, routed by consistent
//     hashing on the job's cache key so repeat traffic lands on warm
//     workers. Admission, scheduling, caching, sharding and stitching stay
//     local: the API and the result bytes are identical to -mode single.
//     Failed or draining workers are retried elsewhere with the failure
//     excluded; /v1/stats gains a "fleet" block (per-node liveness and
//     traffic, routed/retried/excluded totals, cumulative remote RTT).
//   - worker: additionally serves the fleet job protocol (POST /w/v1/job,
//     GET /w/v1/health) next to the normal API, for coordinators to call.
//
// API:
//
//	POST /v1/legalize
//	    Body: {"jobs":[{"design":"fft_a_md2","scale":0.02,"engine":"flex"},
//	                   {"layout":"<flexpl text>","engine":"mgl"}],
//	           "failFast":false,"includeLayout":false}
//	    — or a raw flexpl payload (non-JSON Content-Type) with
//	    ?engine=flex&tag=mine&shards=4&halo=2.
//	    Design jobs must carry an explicit scale in (0, -max-scale].
//	    A job may set "shards": K (bounded by -max-shards) to split its
//	    layout into K row bands legalized as independent pool jobs and
//	    stitched into one result line; -auto-shard-mb M shards any job
//	    whose layout footprint exceeds M MiB even when it doesn't ask.
//	    Each band occupies one admission slot.
//	    Jobs may carry scheduling fields: "priority" (higher runs earlier,
//	    in [-100, 100]; the default scheduler ages waiting jobs so low
//	    priorities never starve), "deadlineMs" (relative completion
//	    target; a job still queued when it expires fails fast in its
//	    result line), and "client" (the tenant quotas, fair sharing and
//	    per-client admission key off). Unknown JSON fields are rejected
//	    with a 400 naming the field.
//	    Streams NDJSON: one result line per job in completion order, then
//	    {"done":true,...}. 400 on malformed payloads, 413 on oversized
//	    bodies, 429 when the queue is full (admission control), 503 while
//	    shutting down. The 429 carries Retry-After derived from current
//	    queue occupancy — ceil(queuedJobs/workers) seconds, clamped to
//	    [1, 60]; /v1/stats exposes the same estimate as
//	    retryAfterSeconds next to queuedJobs. With -client-queue-depth, a
//	    single tenant over its own admission bound gets a per-client 429
//	    (other tenants keep submitting) whose Retry-After reflects that
//	    tenant's backlog.
//	    With -outcome-cache-mb or -cache-dir, finished legalizations are
//	    memoized by input-layout content hash: every result line gains a
//	    "layoutHash" a later job may name as its "base", and a job may
//	    carry "edits" (cell moves/inserts/deletes) perturbing its input —
//	    a sharded edit against a cached base re-legalizes only the dirty
//	    row bands and splices the rest from the cached outcome,
//	    byte-identical to the full re-run. -cache-dir persists the cache
//	    as content-addressed files loaded on start, so a restarted server
//	    is warm. /v1/stats gains incremental/fallbacks/outcomeHits.
//	GET /v1/stats    — cumulative service statistics (jobs, cache hit
//	                   rate, device contention, fleet routing) as JSON.
//	GET /healthz     — liveness probe: 200 {"status":"ok"} while serving,
//	                   503 {"status":"draining"} once shutdown begins.
//
// The server drains in-flight batches on SIGINT/SIGTERM before exiting:
// /healthz flips to 503 first (and a worker's fleet surface starts
// answering 503 "draining", which coordinators retry elsewhere), then the
// listener shuts down, then the service closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	flex "github.com/flex-eda/flex"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent legalization jobs (0 = GOMAXPROCS)")
	fpgas := flag.Int("fpgas", 1, "modeled FPGA boards shared by FLEX jobs (negative = unlimited)")
	cacheMB := flag.Int("cache-mb", 256, "layout cache budget in MiB (0 = off)")
	queueDepth := flag.Int("queue-depth", 1024, "admission bound on queued+running jobs (0 = unbounded)")
	maxBodyMB := flag.Int("max-body-mb", 64, "request body size limit in MiB")
	maxScale := flag.Float64("max-scale", 0.2, "largest generation scale a design job may request")
	maxShards := flag.Int("max-shards", 64, "largest per-job shard count a request may ask for")
	autoShardMB := flag.Int("auto-shard-mb", 0, "auto-shard jobs whose layout footprint exceeds this many MiB (0 = off)")
	schedName := flag.String("sched", "priority", "queue policy for workers and boards (priority, fifo)")
	clientQuota := flag.Int("client-quota", 0, "max concurrently running jobs per client (0 = unlimited)")
	clientQueueDepth := flag.Int("client-queue-depth", 0, "per-client admission bound on queued+running jobs; exceeding it returns a per-client 429 (0 = unbounded)")
	reconfigMS := flag.Int("reconfig-ms", 0, "modeled FPGA reconfiguration delay in ms when consecutive board holders differ (0 = counted, free)")
	outcomeCacheMB := flag.Int("outcome-cache-mb", 0, "outcome cache budget in MiB: memoize legalization results by layout content hash and serve edit jobs incrementally (0 = off unless -cache-dir is set)")
	cacheDir := flag.String("cache-dir", "", "persist the outcome cache as content-addressed files in this directory, loaded on start (enables the outcome cache)")
	mode := flag.String("mode", "single", "fleet role: single, coordinator (execute jobs on -peers workers), or worker (serve fleet jobs at /w/v1/*)")
	peers := flag.String("peers", "", "comma-separated worker base URLs, e.g. http://10.0.0.2:8080,http://10.0.0.3:8080 (coordinator mode)")
	fleetTimeoutMS := flag.Int("fleet-timeout-ms", 120000, "one remote job attempt's end-to-end timeout in ms (coordinator mode)")
	fleetInflight := flag.Int("fleet-inflight", 16, "concurrently outstanding remote jobs per worker (coordinator mode)")
	fleetRetries := flag.Int("fleet-retries", 0, "extra attempts after a retryable remote failure, each excluding the failed nodes (0 = every other worker once)")
	logLevel := flag.String("log-level", "info", "structured-log threshold on stderr (debug, info, warn, error)")
	trace := flag.Bool("trace", false, "record per-job trace spans; result lines gain a \"trace\" ID (telemetry only, result bytes unchanged)")
	pprofOn := flag.Bool("pprof", false, "mount profiling endpoints at /debug/pprof/*")
	flag.Parse()

	scheduler, err := flex.ParseScheduler(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "flexserve: invalid -log-level %q (want debug, info, warn, or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	opts := []flex.ServiceOption{
		flex.WithTracing(*trace),
		flex.WithLogger(logger),
		flex.WithWorkers(*workers),
		flex.WithFPGAs(*fpgas),
		flex.WithCacheBytes(int64(*cacheMB) << 20),
		flex.WithQueueDepth(*queueDepth),
		flex.WithAutoShardBytes(int64(*autoShardMB) << 20),
		flex.WithScheduler(scheduler),
		flex.WithClientQuota(*clientQuota),
		flex.WithClientQueueDepth(*clientQueueDepth),
		flex.WithReconfigCost(time.Duration(*reconfigMS) * time.Millisecond),
		flex.WithOutcomeCacheBytes(int64(*outcomeCacheMB) << 20),
		flex.WithCacheDir(*cacheDir),
	}
	var workerURLs []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			workerURLs = append(workerURLs, p)
		}
	}
	switch *mode {
	case "single", "worker":
		if len(workerURLs) > 0 {
			fmt.Fprintln(os.Stderr, "flexserve: -peers requires -mode coordinator")
			os.Exit(2)
		}
	case "coordinator":
		if len(workerURLs) == 0 {
			fmt.Fprintln(os.Stderr, "flexserve: -mode coordinator requires -peers")
			os.Exit(2)
		}
		opts = append(opts,
			flex.WithWorkersList(workerURLs...),
			flex.WithFleetTimeout(time.Duration(*fleetTimeoutMS)*time.Millisecond),
			flex.WithFleetInflight(*fleetInflight),
			flex.WithFleetRetries(*fleetRetries),
		)
	default:
		fmt.Fprintf(os.Stderr, "flexserve: unknown -mode %q (want single, coordinator, or worker)\n", *mode)
		os.Exit(2)
	}
	svc := flex.NewService(opts...)
	var fw *flex.FleetWorker
	if *mode == "worker" {
		fw = flex.NewFleetWorker(svc)
	}
	app := newServerWith(svc, fw, int64(*maxBodyMB)<<20, *maxScale, *maxShards, obsConfig{
		log:   logger,
		trace: *trace,
		pprof: *pprofOn,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           app,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "flexserve: listening on %s (mode=%s workers=%d fpgas=%d cache=%dMiB queue=%d sched=%s client-quota=%d client-queue=%d reconfig=%dms peers=%d)\n",
		*addr, *mode, svc.Stats().Workers, *fpgas, *cacheMB, *queueDepth,
		scheduler, *clientQuota, *clientQueueDepth, *reconfigMS, len(workerURLs))

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "flexserve: shutting down")
	// Flip /healthz (and a worker's fleet surface) to 503 before the
	// listener closes, so probes see "draining" rather than a vanished
	// endpoint while in-flight streams finish.
	app.drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
