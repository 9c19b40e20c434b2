// Command perfbench is the wall-clock benchmark of the FLEX serving stack.
// It drives a flexserve built from the same checkout — or a coordinator in
// front of two fleet workers — over loopback HTTP with one of four seeded,
// closed-loop workloads, checks every served result against an in-process
// reference, and prints each metric by name with its unit, ending with one
// JSON line.
//
// Usage, from the repository root (the wrapper builds both binaries under
// .bench_build/ first):
//
//	bash perfbench/run.sh --workload full_design --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs the window twice, untraced and then with -trace -pprof, and reports
// the per-layer breakdown. perfbench/README.md describes the workloads, each
// metric's unit, direction and source, and which end-to-end metric each
// layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed runs use unless told otherwise; heldOutSeed is
	// kept out of tuning, for confirming a claimed gain on unseen inputs.
	defaultSeed = 1
	heldOutSeed = 9001

	// runDeadline bounds one invocation; on expiry every server is stopped
	// and the run fails.
	runDeadline = 170 * time.Second

	// timedSetups is how many times a timed run sets its servers up;
	// setup_s is the median. A traced run sets each of its phases up once.
	timedSetups = 5
)

func init() {
	// Servers are launched from the main goroutine with a parent-death
	// signal, which the kernel ties to the launching thread: pin main to the
	// main thread, which lives as long as the process.
	runtime.LockOSThread()
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string  // flexserve binary
	size     float64 // input cell-count multiplier (1; the tests shrink it)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed: the same seed sends byte-identical requests (held-out seed: %d)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 15, "timed window length in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer breakdown")
	flag.StringVar(&o.bin, "flexserve", "", "flexserve binary to drive")
	flag.Parse()
	o.trace = trace != 0
	o.size = 1
	if _, ok := workloads[o.workload]; !ok || o.bin == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -flexserve BIN -workload {%s} [-seed N] [-seconds S] [-trace 0|1]\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	res, err := run(ctx, o, os.Stdout)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct || res.failed > 0 {
		os.Exit(1)
	}
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, reported with
// --trace 0. failed_ratio is printed too, but travels in the JSON line as
// the failed and attempted counts: it is 0 on a healthy run.
var endToEnd = []metricSpec{
	{"jobs_per_s", "jobs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"ave_dis", "rows"},
	{"modeled_s", "s_modeled"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the per-module metrics of the traced run. A module a
// workload leaves idle reads 0.
var perLayer = []metricSpec{
	{"flexserve.overhead_ms", "ms"},
	{"flexserve.cpu_share", "ratio"},
	{"model.decode_ms", "ms"},
	{"model.encode_ms", "ms"},
	{"model.check_ms", "ms"},
	{"model.measure_ms", "ms"},
	{"model.clone_ms", "ms"},
	{"model.check_cpu_share", "ratio"},
	{"model.measure_cpu_share", "ratio"},
	{"model.clone_cpu_share", "ratio"},
	{"sched.queue_wait_ms", "ms"},
	{"batch.device_wait_ms", "ms"},
	{"batch.device_hold_ms", "ms"},
	{"batch.device_contended_ratio", "ratio"},
	{"service.job_wall_ms", "ms"},
	{"core.legalize_ms", "ms"},
	{"mgl.legalize_ms", "ms"},
	{"mgl-mt.legalize_ms", "ms"},
	{"gpu.legalize_ms", "ms"},
	{"analytical.legalize_ms", "ms"},
	{"fop.cpu_share", "ratio"},
	{"order.cpu_share", "ratio"},
	{"region.cpu_share", "ratio"},
	{"shift.cpu_share", "ratio"},
	{"abacus.cpu_share", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"eco.cpu_share", "ratio"},
	{"eco.hash_ms", "ms"},
	{"eco.apply_ms", "ms"},
	{"eco.dirty_bands", "count"},
	{"eco.incremental_ratio", "ratio"},
	{"eco.repeat_latency_p50_ms", "ms"},
	{"eco.edit_latency_p50_ms", "ms"},
	{"cache.outcome_hit_ratio", "ratio"},
	{"cache.outcome_mb", "MiB"},
	{"shard.plan_ms", "ms"},
	{"shard.split_ms", "ms"},
	{"shard.stitch_ms", "ms"},
	{"shard.band_skew", "ratio"},
	{"fleet.rpc_ms", "ms"},
	{"fleet.retried", "count"},
	{"fleet.excluded", "count"},
	{"fleet.node_skew", "ratio"},
	{"obs.trace_overhead_pct", "%"},
}

// result is one run's verdict and metrics.
type result struct {
	correct   bool
	attempted int
	failed    int
	specs     []metricSpec
	values    map[string]float64
	distinct  int // distinct inputs verified
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) final() jsonResult {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range r.specs {
		out.Metrics[s.name] = jsonMetric{Value: r.values[s.name], Unit: s.unit}
	}
	return out
}

// print writes one "metric <name> <value> <unit>" line per metric.
func (r *result) print(out io.Writer) {
	for _, s := range r.specs {
		fmt.Fprintf(out, "metric %-30s %14.6f %s\n", s.name, r.values[s.name], s.unit)
	}
}

// run executes one benchmark invocation and returns its result; every
// server it started is stopped and reaped before it returns.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w := workloads[o.workload]
	began := time.Now()
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v size=%g clients=%d\n",
		w.name, o.seed, o.seconds, o.trace, o.size, w.clients)
	hostLine(out, "start")

	st, err := w.newStream(o)
	if err != nil {
		return nil, err
	}
	st.pregen(int(o.seconds*w.rate*1.5) + 2)
	digest, n := st.digest()
	fmt.Fprintf(out, "perfbench: request stream sha256=%s over the first %d requests\n", digest, n)

	reg := &registry{}
	defer reg.stopAll()
	res := &result{values: map[string]float64{}}
	if !o.trace {
		ph, err := runPhase(ctx, o, w, st, false, timedSetups, reg, out)
		if err != nil {
			return nil, err
		}
		if err := verify(ctx, st, [][]response{ph.win.responses}, 2, nil, res); err != nil {
			return nil, err
		}
		res.specs = endToEnd
		endToEndMetrics(ph, res, out)
	} else {
		plain, err := runPhase(ctx, o, w, st, false, 1, reg, out)
		if err != nil {
			return nil, err
		}
		traced, err := runPhase(ctx, o, w, st, true, 1, reg, out)
		if err != nil {
			return nil, err
		}
		sp := newSpans()
		if err := verify(ctx, st, [][]response{plain.win.responses, traced.win.responses}, 1, sp, res); err != nil {
			return nil, err
		}
		res.specs = perLayer
		layerMetrics(plain, traced, sp, res, out)
	}
	hostLine(out, "end")
	fmt.Fprintf(out, "perfbench: run took %.1fs\n", time.Since(began).Seconds())
	fmt.Fprintf(out, "perfbench: %d requests attempted, %d failed (failed_ratio %.6f ratio), correct=%v\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), res.correct)
	res.print(out)
	return res, nil
}

// hostLine prints the provenance a reader needs to compare runs.
func hostLine(out io.Writer, when string) {
	load := "?"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			load = f[0]
		}
	}
	fmt.Fprintf(out, "perfbench: host at %s: nproc=%d GOMAXPROCS=%d go=%s loadavg1=%s\n",
		when, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), load)
}

// phase is one launched server set and its timed window.
type phase struct {
	win           window
	setups        []time.Duration
	procs         []*proc
	before, after []snapshot // per process, in cluster order
	rssKiB        int64
	profile       []sample
}

// runPhase sets the workload's servers up `setups` times (the last set
// stays up), runs the timed window against it and captures the counters
// around the window. A traced phase launches with -trace -pprof and pulls
// a CPU profile from every process over the window.
func runPhase(ctx context.Context, o options, w *workload, st stream, traced bool, setups int, reg *registry, out io.Writer) (*phase, error) {
	ph := &phase{}
	var cl *cluster
	var hc *http.Client
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.stop()
			hc.CloseIdleConnections()
		}
		start := time.Now()
		var err error
		if cl, err = startCluster(ctx, o, w, traced, reg); err != nil {
			return nil, err
		}
		hc = newHTTPClient(w.clients)
		if err := st.setup(ctx, hc, cl.front.url); err != nil {
			return nil, err
		}
		for _, r := range st.warmups() {
			if resp := send(ctx, hc, cl.front.url, r); resp.failure() != "" {
				return nil, fmt.Errorf("warm-up request: %s", resp.failure())
			}
		}
		ph.setups = append(ph.setups, time.Since(start))
	}
	defer hc.CloseIdleConnections()
	ph.procs = cl.procs
	if info, err := getBody(ctx, hc, cl.front.url+"/v1/buildinfo"); err == nil {
		fmt.Fprintf(out, "perfbench: flexserve build %s", info)
	}

	for _, p := range cl.procs {
		s, err := take(ctx, hc, p)
		if err != nil {
			return nil, fmt.Errorf("%s: counters before the window: %w", p.name, err)
		}
		ph.before = append(ph.before, s)
	}
	var profWG sync.WaitGroup
	profiles := make([][]sample, len(cl.procs))
	profErrs := make([]error, len(cl.procs))
	if traced {
		secs := max(int(o.seconds+0.5), 1)
		for i, p := range cl.procs {
			profWG.Add(1)
			go func(i int, p *proc) {
				defer profWG.Done()
				body, err := getBody(ctx, http.DefaultClient, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", p.url, secs))
				if err == nil {
					profiles[i], err = parseProfile(body)
				}
				profErrs[i] = err
			}(i, p)
		}
	}
	ph.win = runWindow(ctx, hc, cl.front.url, w.clients, time.Duration(o.seconds*float64(time.Second)), st.next)
	profWG.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cl.check(); err != nil {
		return nil, err
	}
	for i, p := range cl.procs {
		s, err := take(ctx, hc, p)
		if err != nil {
			return nil, fmt.Errorf("%s: counters after the window: %w", p.name, err)
		}
		ph.after = append(ph.after, s)
		kib, err := p.peakRSS()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		ph.rssKiB += kib
		if profErrs[i] != nil {
			return nil, fmt.Errorf("%s: CPU profile: %w", p.name, profErrs[i])
		}
		ph.profile = append(ph.profile, profiles[i]...)
	}
	return ph, nil
}

// startCluster launches the workload's servers: fleet workers first, then
// the front server, and waits until all answer /healthz and a coordinator
// reports every worker alive.
func startCluster(ctx context.Context, o options, w *workload, traced bool, reg *registry) (*cluster, error) {
	common := []string{"-log-level", "warn"}
	if traced {
		common = append(common, "-trace", "-pprof")
	}
	cl := &cluster{}
	var workers []procSpec
	for i := 0; i < w.fleetWorkers; i++ {
		workers = append(workers, procSpec{fmt.Sprintf("worker%d", i+1), append(append([]string(nil), w.workerArgs...), common...)})
	}
	ws, err := launch(ctx, reg, o.bin, workers)
	if err != nil {
		return nil, err
	}
	cl.procs = ws
	var peers []string
	for _, p := range ws {
		peers = append(peers, p.url)
	}
	args := append(append([]string(nil), w.args...), common...)
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	front, err := launch(ctx, reg, o.bin, []procSpec{{"flexserve", args}})
	if err != nil {
		cl.stop()
		return nil, err
	}
	cl.procs = append(cl.procs, front[0])
	cl.front = front[0]
	if len(peers) > 0 {
		if err := cl.fleetAlive(ctx, len(peers)); err != nil {
			cl.stop()
			return nil, err
		}
	}
	return cl, nil
}

// verify checks every response of the windows: failures count, and each
// distinct input's rows must equal the in-process reference. References
// run on par goroutines; sp (nil for untimed) collects the replay's timed
// calls. res receives the attempted/failed counts, correctness, and the
// distinct input count.
func verify(ctx context.Context, st stream, windows [][]response, par int, sp *spans, res *result) error {
	var all []*response
	for _, w := range windows {
		for i := range w {
			all = append(all, &w[i])
		}
	}
	var keys []string
	first := map[string]*request{}
	for _, r := range all {
		if _, ok := first[r.req.key]; !ok {
			first[r.req.key] = r.req
			keys = append(keys, r.req.key)
		}
	}
	refs := make(map[string][]expect, len(keys))
	var mu sync.Mutex
	var firstErr error
	work := make(chan string)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				exp, err := st.reference(first[k], sp)
				mu.Lock()
				refs[k] = exp
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		if ctx.Err() != nil {
			break
		}
		work <- k
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return fmt.Errorf("reference run: %w", firstErr)
	}
	res.correct = true
	reported := 0
	for _, r := range all {
		res.attempted++
		if r.failure() == "" {
			r.mismatch = compareRows(r.rows, refs[r.req.key])
			if r.mismatch != "" {
				res.correct = false
			}
		}
		if f := r.failure(); f != "" {
			res.failed++
			if reported < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: request failed: %s\n", f)
				reported++
			}
		}
	}
	res.distinct = len(keys)
	return nil
}

// compareRows matches each row to the reference row of its job index.
func compareRows(rows []row, exp []expect) string {
	if len(rows) != len(exp) {
		return fmt.Sprintf("%d rows, reference has %d", len(rows), len(exp))
	}
	for _, rw := range rows {
		if rw.Index < 0 || rw.Index >= len(exp) {
			return fmt.Sprintf("row index %d out of range", rw.Index)
		}
		if err := exp[rw.Index].compare(rw); err != nil {
			return "correctness check: " + err.Error()
		}
	}
	return ""
}

// endToEndMetrics computes the user-visible metrics of an untraced phase.
func endToEndMetrics(ph *phase, res *result, out io.Writer) {
	v := res.values
	lat := latencies(ph.win.responses, "")
	jobs := ph.win.jobs()
	v["jobs_per_s"] = ratio(float64(jobs), ph.win.wall().Seconds())
	v["latency_p50_ms"] = quantile(lat, 0.5)
	v["latency_p90_ms"] = quantile(lat, 0.9)
	var setups []float64
	for _, d := range ph.setups {
		setups = append(setups, d.Seconds())
	}
	v["setup_s"] = median(setups)
	v["ave_dis"], v["modeled_s"] = quality(ph.win.responses)
	var cpu time.Duration
	for i := range ph.procs {
		cpu += ph.after[i].cpu - ph.before[i].cpu
	}
	v["cpu_ms_per_job"] = ratio(ms(cpu), float64(jobs))
	v["peak_rss_mb"] = float64(ph.rssKiB) / 1024
	fmt.Fprintf(out, "perfbench: window %.3fs, %d requests, %d jobs, %d distinct inputs, set-ups %v\n",
		ph.win.wall().Seconds(), len(ph.win.responses), jobs, res.distinct, ph.setups)
	if highestSupported(len(lat), 0.9) < 0.9 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: latency_p90_ms rests on %d samples (%d beyond it, want %d)\n",
			len(lat), beyond(len(lat), 0.9), minBeyond)
	} else {
		fmt.Fprintf(out, "perfbench: latency percentiles from %d samples (%d beyond p90)\n", len(lat), beyond(len(lat), 0.9))
	}
}

// latencies returns the successful responses' latencies in ms, optionally
// only those of one request kind.
func latencies(rs []response, kind string) []float64 {
	var out []float64
	for i := range rs {
		if rs[i].failure() == "" && (kind == "" || rs[i].req.kind == kind) {
			out = append(out, ms(rs[i].latency))
		}
	}
	return out
}

// quality averages AveDis and modeled seconds over every job of the
// window's distinct inputs, each input counted once.
func quality(rs []response) (aveDis, modeled float64) {
	seen := map[string]bool{}
	var dis, secs []float64
	for i := range rs {
		r := &rs[i]
		if r.failure() != "" || seen[r.req.key] {
			continue
		}
		seen[r.req.key] = true
		for _, rw := range r.rows {
			dis = append(dis, rw.AveDis)
			secs = append(secs, rw.ModeledSeconds)
		}
	}
	return mean(dis), mean(secs)
}

// layerMetrics computes the per-layer breakdown from the traced phase's
// rows and counters, the replay's spans and the CPU profiles, plus the
// tracing overhead against the untraced phase.
func layerMetrics(plain, traced *phase, sp *spans, res *result, out io.Writer) {
	v := res.values
	rs := traced.win.responses
	var overhead, dwait, dhold, wall []float64
	for i := range rs {
		r := &rs[i]
		if r.failure() != "" {
			continue
		}
		overhead = append(overhead, ms(r.latency)-r.maxWallMs())
		for _, rw := range r.rows {
			dwait = append(dwait, rw.DeviceWaitMs)
			dhold = append(dhold, rw.DeviceHoldMs)
			wall = append(wall, rw.WallMs)
		}
	}
	v["flexserve.overhead_ms"] = median(overhead)
	v["batch.device_wait_ms"] = median(dwait)
	v["batch.device_hold_ms"] = median(dhold)
	v["service.job_wall_ms"] = median(wall)

	c := statsDelta(traced.before, traced.after)
	front := len(traced.procs) - 1
	v["batch.device_contended_ratio"] = ratio(float64(c.contended), float64(c.acquires))
	v["eco.incremental_ratio"] = ratio(float64(c.incremental), float64(c.incremental+c.fallbacks))
	v["cache.outcome_hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	v["cache.outcome_mb"] = float64(traced.after[front].stats.OutcomeBytes) / (1 << 20)
	v["fleet.retried"] = float64(c.retried)
	v["fleet.excluded"] = float64(c.excluded)
	if len(c.routed) > 0 {
		v["fleet.node_skew"] = quantile(c.routed, 1) / max(quantile(c.routed, 0), 1)
	}
	v["fleet.rpc_ms"] = traced.histDelta(front, "flex_fleet_rpc_seconds").quantile(0.5) * 1000
	// Queue wait comes from the scheduler's own histogram over every pool
	// job, bands included: a sharded job's result row carries no
	// schedWaitMs.
	queue := histogram{}
	for i := range traced.procs {
		for le, n := range traced.histDelta(i, "flex_sched_queue_wait_seconds") {
			queue[le] += n
		}
	}
	v["sched.queue_wait_ms"] = queue.quantile(0.5) * 1000

	v["eco.repeat_latency_p50_ms"] = median(latencies(rs, "repeat"))
	v["eco.edit_latency_p50_ms"] = median(latencies(rs, "edit"))

	for _, m := range []string{"decode", "encode", "check", "measure", "clone"} {
		v["model."+m+"_ms"] = sp.median("model." + m)
	}
	for m, fn := range modelFuncs {
		v["model."+m+"_cpu_share"] = inclusiveShare(traced.profile, fn)
	}
	for _, e := range []string{"core", "mgl", "mgl-mt", "gpu", "analytical"} {
		v[e+".legalize_ms"] = sp.median(e + ".legalize")
	}
	v["eco.hash_ms"] = sp.valueMedian("eco.hash_ms")
	v["eco.apply_ms"] = sp.median("eco.apply")
	v["eco.dirty_bands"] = sp.valueMean("eco.dirty_bands")
	v["shard.plan_ms"] = sp.median("shard.plan")
	v["shard.split_ms"] = sp.median("shard.split")
	v["shard.stitch_ms"] = sp.median("shard.stitch")
	v["shard.band_skew"] = sp.valueMedian("shard.band_skew")

	shares := cpuShares(traced.profile)
	for _, l := range []string{"fop", "order", "region", "shift", "abacus", "gc", "eco", "flexserve"} {
		v[l+".cpu_share"] = shares[l]
	}
	var names []string
	for l := range shares {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Fprint(out, "perfbench: CPU profile by layer:")
	for _, l := range names {
		fmt.Fprintf(out, " %s=%.3f", l, shares[l])
	}
	fmt.Fprintln(out)

	plainRate := ratio(float64(plain.win.jobs()), plain.win.wall().Seconds())
	tracedRate := ratio(float64(traced.win.jobs()), traced.win.wall().Seconds())
	v["obs.trace_overhead_pct"] = 100 * ratio(plainRate-tracedRate, plainRate)
	fmt.Fprintf(out, "perfbench: untraced %.3f jobs/s, traced %.3f jobs/s; replayed %d distinct inputs\n",
		plainRate, tracedRate, res.distinct)
}

// counters are /v1/stats deltas over a window, summed over processes.
type counters struct {
	acquires, contended    int64     // device acquisitions, and those that waited
	incremental, fallbacks int64     // edit jobs spliced vs re-run in full
	hits, misses           int64     // outcome-cache lookups
	retried, excluded      int64     // fleet retries and node exclusions
	routed                 []float64 // jobs each fleet node completed
}

// statsDelta subtracts the before snapshots from the after ones.
func statsDelta(before, after []snapshot) counters {
	var c counters
	for i := range after {
		b, a := before[i].stats, after[i].stats
		c.acquires += a.DeviceAcquires - b.DeviceAcquires
		c.contended += a.DeviceContended - b.DeviceContended
		c.incremental += a.Incremental - b.Incremental
		c.fallbacks += a.Fallbacks - b.Fallbacks
		c.hits += a.OutcomeHits - b.OutcomeHits
		c.misses += a.OutcomeMisses - b.OutcomeMisses
		if a.Fleet != nil && b.Fleet != nil {
			c.retried += a.Fleet.Retried - b.Fleet.Retried
			c.excluded += a.Fleet.Excluded - b.Fleet.Excluded
			for n := range a.Fleet.Nodes {
				if n < len(b.Fleet.Nodes) {
					c.routed = append(c.routed, float64(a.Fleet.Nodes[n].Routed-b.Fleet.Nodes[n].Routed))
				}
			}
		}
	}
	return c
}

// histDelta is family's histogram on process i over the window.
func (ph *phase) histDelta(i int, family string) histogram {
	return parseHistogram(ph.after[i].metrics, family).sub(parseHistogram(ph.before[i].metrics, family))
}
