// Command flexlg legalizes a placement in flexpl format with a selectable
// engine and writes the legalized layout plus a quality/time report.
//
// Usage:
//
//	flexlg -engine flex|mgl|mgl-mt|gpu|analytical|all [-threads 8]
//	       [-workers N] [-fpgas N] [-cache-mb M]
//	       [-shards K] [-shard-halo R]
//	       [-sched priority|fifo] [-priority P | P1,P2,...] [-client NAME]
//	       [-deadline-ms D] [-reconfig-ms D]
//	       [-edit SPEC,SPEC,...] [-outcome-cache-mb M] [-cache-dir DIR]
//	       [-in design.flexpl | -design name [-scale 0.02]]
//	       [-out legal.flexpl]
//
// -engine accepts a comma-separated list (or "all"); multiple engines run
// concurrently on one flex.Service with -workers goroutines, print a live
// progress line per job on stderr as results stream in, and are reported
// side by side on stdout in submission order. -fpgas bounds the modeled
// accelerator boards FLEX jobs contend on (default 1).
//
// The input is -in (a flexpl file), or -design (a built-in benchmark name,
// see flex.Designs, generated at -scale on the service's workers), or —
// with neither — a small generated demo design. With -design, -cache-mb
// sizes the service's layout cache: the first engine job generates the
// benchmark, its siblings hit the cache, and the hit/miss counts land on
// stderr next to the device-wait stats.
//
// -shards K splits every job's layout into K horizontal row bands that
// legalize as independent jobs on the service and stitch back into one
// result (K = 1 runs the full shard machinery and is byte-identical to the
// unsharded path; 0, the default, skips it). Per-shard progress lands on
// stderr as each band finishes; stdout reports only the stitched result,
// so it stays comparable across shard counts' schedules.
//
// -sched picks the service's queue policy (priority, the default, or
// fifo); -priority assigns each engine job's scheduling class — one value
// for every job, or a comma-separated list matching the engine list, so a
// multi-engine run can interleave priorities. -client submits under a
// tenant identity, -deadline-ms sets a relative completion target (a job
// still queued when it expires fails fast with a deadline error), and
// -reconfig-ms charges the modeled board-programming delay between
// different jobs' device phases. Scheduling changes only when jobs run:
// stdout and -out stay byte-identical across -sched and -priority
// assignments.
//
// -edit perturbs the input before legalization with a comma-separated list
// of cell edits:
//
//	move:NAME:GX:GY          reposition a movable cell's placement anchor
//	ins:NAME:GX:GY:W:H[:P]   insert a new cell (P: any, even, odd)
//	del:NAME                 delete a movable cell
//
// With -cache-dir (or -outcome-cache-mb), the service memoizes finished
// legalizations by input-layout content hash: a repeated run serves from
// cache, and a sharded -edit run against a previously legalized base
// re-legalizes only the dirty row bands, splicing the rest from the cached
// outcome — byte-identical to the full re-run. -cache-dir persists the
// cache across invocations, which is what makes the incremental path pay
// off for a one-shot CLI:
//
//	flexlg -in base.flexpl -shards 8 -cache-dir /tmp/eco -out v0.flexpl
//	flexlg -in base.flexpl -shards 8 -cache-dir /tmp/eco \
//	       -edit move:c42:10:5 -out v1.flexpl   # dirty bands only
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/obs"
)

// parseEngines expands a comma-separated engine list (or "all", which
// keeps FLEX first so -out captures the headline engine's layout). The
// name registry is flex.EngineNames/flex.ParseEngine — the same table
// flexserve serves — so the CLIs cannot drift from the library. Empty
// entries — a trailing comma, say — are skipped, duplicates run once, and
// an unknown name is reported with its position in the list.
func parseEngines(s string) ([]flex.Engine, []string, error) {
	names := strings.Split(s, ",")
	if strings.TrimSpace(s) == "all" {
		names = flex.EngineNames()
	}
	engines := make([]flex.Engine, 0, len(names))
	clean := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for pos, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		e, err := flex.ParseEngine(n)
		if err != nil {
			return nil, nil, fmt.Errorf("unknown engine %q at position %d (want %s or all)",
				n, pos+1, strings.Join(flex.EngineNames(), ", "))
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		engines = append(engines, e)
		clean = append(clean, n)
	}
	if len(engines) == 0 {
		return nil, nil, fmt.Errorf("no engine selected in %q", s)
	}
	return engines, clean, nil
}

// parsePriorities expands the -priority flag for n jobs: empty = all zero,
// a single integer broadcasts, a comma-separated list must match n.
func parsePriorities(s string, n int) ([]int, error) {
	out := make([]int, n)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		p, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("invalid -priority %q", s)
		}
		for i := range out {
			out[i] = p
		}
		return out, nil
	}
	if len(parts) != n {
		return nil, fmt.Errorf("-priority lists %d values for %d engine jobs", len(parts), n)
	}
	for i, part := range parts {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("invalid -priority entry %q at position %d", part, i+1)
		}
		out[i] = p
	}
	return out, nil
}

// parseEdits expands the -edit flag's comma-separated specs into the
// library's edit batch.
func parseEdits(s string) ([]flex.Edit, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var edits []flex.Edit
	for pos, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		atoi := func(i int, what string) (int, error) {
			n, err := strconv.Atoi(parts[i])
			if err != nil {
				return 0, fmt.Errorf("edit %d (%q): bad %s %q", pos+1, spec, what, parts[i])
			}
			return n, nil
		}
		var e flex.Edit
		var err error
		switch {
		case parts[0] == "move" && len(parts) == 4:
			e.Op, e.Cell = flex.EditMove, parts[1]
			if e.GX, err = atoi(2, "gx"); err != nil {
				return nil, err
			}
			if e.GY, err = atoi(3, "gy"); err != nil {
				return nil, err
			}
		case parts[0] == "del" && len(parts) == 2:
			e.Op, e.Cell = flex.EditDelete, parts[1]
		case parts[0] == "ins" && (len(parts) == 6 || len(parts) == 7):
			e.Op, e.Cell = flex.EditInsert, parts[1]
			if e.GX, err = atoi(2, "gx"); err != nil {
				return nil, err
			}
			if e.GY, err = atoi(3, "gy"); err != nil {
				return nil, err
			}
			if e.W, err = atoi(4, "w"); err != nil {
				return nil, err
			}
			if e.H, err = atoi(5, "h"); err != nil {
				return nil, err
			}
			if len(parts) == 7 {
				e.Parity = parts[6]
			}
		default:
			return nil, fmt.Errorf("edit %d: unknown spec %q (want move:NAME:GX:GY, ins:NAME:GX:GY:W:H[:parity], del:NAME)", pos+1, spec)
		}
		if e.Cell == "" {
			return nil, fmt.Errorf("edit %d (%q): empty cell name", pos+1, spec)
		}
		edits = append(edits, e)
	}
	return edits, nil
}

func main() {
	engineList := flag.String("engine", "flex", "engine: flex, mgl, mgl-mt, gpu, analytical; comma-separated list or \"all\" compares engines")
	threads := flag.Int("threads", 8, "threads for mgl-mt")
	workers := flag.Int("workers", 0, "concurrent engine runs when several engines are selected (0 = GOMAXPROCS)")
	fpgas := flag.Int("fpgas", 1, "modeled FPGA boards shared by concurrent FLEX jobs (negative = unlimited)")
	cacheMB := flag.Int("cache-mb", 0, "service layout-cache budget in MiB for -design jobs (0 = off)")
	shards := flag.Int("shards", 0, "row bands per job, legalized independently and stitched (0 = unsharded)")
	shardHalo := flag.Int("shard-halo", 0, "seam-crossing reassignment window in rows (0 = library default)")
	schedName := flag.String("sched", "priority", "service queue policy (priority, fifo)")
	priorityList := flag.String("priority", "", "scheduling priority per job: one integer for all, or a comma list matching the engine list")
	client := flag.String("client", "", "tenant identity the jobs submit under")
	deadlineMS := flag.Int64("deadline-ms", 0, "relative completion deadline in ms; expired queued jobs fail fast (0 = none)")
	reconfigMS := flag.Int("reconfig-ms", 0, "modeled FPGA reconfiguration delay in ms between different jobs' device phases (0 = counted, free)")
	editList := flag.String("edit", "", "comma-separated cell edits applied before legalization: move:NAME:GX:GY, ins:NAME:GX:GY:W:H[:parity], del:NAME")
	outcomeCacheMB := flag.Int("outcome-cache-mb", 0, "outcome cache budget in MiB: memoize results by layout content hash so -edit runs re-legalize only dirty bands (0 = off unless -cache-dir is set)")
	cacheDir := flag.String("cache-dir", "", "persist the outcome cache as content-addressed files in this directory across invocations (enables the outcome cache)")
	in := flag.String("in", "", "input flexpl file (default: generated demo)")
	design := flag.String("design", "", "built-in benchmark name to generate instead of -in (see flexbench -designs)")
	scale := flag.Float64("scale", 0.02, "generation scale for -design (1.0 = paper size)")
	out := flag.String("out", "", "output flexpl file, written from the first selected engine (default: stdout suppressed)")
	demoCells := flag.Int("demo-cells", 2000, "demo design cell count when no -in")
	demoDensity := flag.Float64("demo-density", 0.6, "demo design density when no -in")
	traceOut := flag.String("trace-out", "", "write the run's trace spans as Chrome trace-viewer JSON (chrome://tracing / Perfetto) to this file")
	flag.Parse()

	engines, names, err := parseEngines(*engineList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scheduler, err := flex.ParseScheduler(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	priorities, err := parsePriorities(*priorityList, len(engines))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	edits, err := parseEdits(*editList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var deadline time.Time
	if *deadlineMS < 0 {
		fmt.Fprintln(os.Stderr, "flexlg: -deadline-ms must be >= 0")
		os.Exit(2)
	} else if *deadlineMS > 0 {
		//flexvet:walltime -deadline-ms is wall-relative by definition; it gates scheduling, never output bytes
		deadline = time.Now().Add(time.Duration(*deadlineMS) * time.Millisecond)
	}
	if *in != "" && *design != "" {
		fmt.Fprintln(os.Stderr, "flexlg: -in and -design are mutually exclusive")
		os.Exit(2)
	}
	// Validate -scale up front for design refs on every path: the library's
	// BatchJob convention treats scale 0 as paper-size 1.0, which a CLI
	// typo must never silently trigger.
	if *design != "" && (math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0) {
		fmt.Fprintf(os.Stderr, "flexlg: -scale must be a positive finite factor, got %v\n", *scale)
		os.Exit(2)
	}

	// The input: an explicit layout (-in or the generated demo), or a
	// (design, scale) reference resolved per job on the service's workers,
	// where the layout cache collapses the duplicate generations. Without
	// a cache, design refs would regenerate once per engine — so they are
	// only passed through when -cache-mb is set; otherwise the design is
	// generated once here and shared like any other explicit layout.
	var layout *flex.Layout
	designRef := *design
	switch {
	case *in != "":
		f, err2 := os.Open(*in)
		if err2 != nil {
			fmt.Fprintln(os.Stderr, err2)
			os.Exit(1)
		}
		layout, err = flex.ReadLayout(f)
		f.Close() //flexvet:close read-side close; decode failures already surface through ReadLayout's error
	case *design != "" && *cacheMB <= 0:
		layout, err = flex.Generate(*design, *scale)
		designRef = ""
	case *design == "":
		layout, err = flex.GenerateCustom(*demoCells, *demoDensity, 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// One job per engine over the shared input (engines legalize clones);
	// a single engine degenerates to one worker.
	jobs := make([]flex.BatchJob, len(engines))
	for i, e := range engines {
		jobs[i] = flex.BatchJob{
			Layout:    layout,
			Design:    designRef,
			Scale:     *scale,
			Engine:    e,
			Options:   flex.Options{Threads: *threads},
			Tag:       names[i],
			Shards:    *shards,
			ShardHalo: *shardHalo,
			Priority:  priorities[i],
			Deadline:  deadline,
			Client:    *client,
			Edits:     edits,
		}
	}
	// -trace-out turns on span recording and collects each finished job's
	// trace from its result; tracing is telemetry only, so stdout and -out
	// stay byte-identical with or without it (CI-gated).
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	// Stream a progress line per job in completion order on stderr; the
	// stdout report below stays in submission order.
	status := func(r flex.BatchResult) string {
		switch {
		case flex.IsBatchSkipped(r.Err):
			return "skipped"
		case r.Err != nil:
			return "error"
		case !r.Outcome.Legal:
			return "illegal"
		}
		return "ok"
	}
	done := 0
	progress := func(r flex.BatchResult) {
		tracer.Add(r.TraceID, r.Tag, r.Spans) // a no-op without -trace-out
		done++
		fmt.Fprintf(os.Stderr, "[%d/%d] %-10s %-7s wall %v", done, len(jobs), r.Tag, status(r), r.Wall.Round(time.Millisecond))
		if r.DeviceWait > 0 {
			fmt.Fprintf(os.Stderr, " (fpga wait %v)", r.DeviceWait.Round(time.Microsecond))
		}
		if len(r.Shards) > 0 {
			fmt.Fprintf(os.Stderr, " [%d shards]", len(r.Shards))
		}
		fmt.Fprintln(os.Stderr)
	}
	// Per-shard progress: one line per finished band, before its job's
	// stitched line above.
	shardProgress := func(job int, r flex.BatchResult) {
		fmt.Fprintf(os.Stderr, "  %s shard %d: %-7s wall %v", jobs[job].Tag, r.Index, status(r), r.Wall.Round(time.Millisecond))
		if r.DeviceWait > 0 {
			fmt.Fprintf(os.Stderr, " (fpga wait %v)", r.DeviceWait.Round(time.Microsecond))
		}
		fmt.Fprintln(os.Stderr)
	}
	// One long-lived service per invocation: the worker pool, the modeled
	// board pool, and (with -cache-mb) the layout cache that -design jobs
	// resolve through.
	opts := []flex.ServiceOption{
		flex.WithWorkers(*workers), flex.WithFPGAs(*fpgas),
		flex.WithCacheBytes(int64(*cacheMB) << 20),
		flex.WithScheduler(scheduler),
		flex.WithReconfigCost(time.Duration(*reconfigMS) * time.Millisecond),
		flex.WithOutcomeCacheBytes(int64(*outcomeCacheMB) << 20),
		flex.WithCacheDir(*cacheDir),
		flex.WithTracing(tracer != nil),
	}
	svc := flex.NewService(opts...)
	//flexvet:close shutdown close at CLI exit: the pool drained with Submit, so there is no error left to act on
	defer svc.Close()
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{OnResult: progress, OnShard: shardProgress})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *cacheMB > 0 {
		st := svc.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (rate %.2f), %d entries, %.1f MiB resident\n",
			st.CacheHits, st.CacheMisses, st.CacheHitRate(),
			st.CacheEntries, float64(st.CacheBytes)/(1<<20))
	}
	if *outcomeCacheMB > 0 || *cacheDir != "" {
		st := svc.Stats()
		fmt.Fprintf(os.Stderr, "outcomes: %d hits, %d misses, %d incremental, %d fallbacks, %d loaded from disk\n",
			st.OutcomeHits, st.OutcomeMisses, st.Incremental, st.Fallbacks, st.OutcomeLoaded)
	}

	exit := 0
	for _, r := range sum.Results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Tag, r.Err)
			exit = 1
			continue
		}
		printOutcome(r.Outcome)
		if !r.Outcome.Legal {
			exit = 1
		}
	}
	if len(sum.Results) > 1 {
		fpgaDesc := "unlimited fpgas"
		if sum.FPGAs > 0 {
			fpgaDesc = fmt.Sprintf("%d fpgas", sum.FPGAs)
		}
		// Wall clocks, queue waits and reconfigurations are scheduling
		// observations: stderr, so stdout stays byte-identical across
		// workers × fpgas × scheduler configurations.
		fmt.Fprintf(os.Stderr, "batch: %d engines, %d workers, %s, wall %v (summed job wall %v, sched wait %v, fpga wait %v, %d reconfigs)\n",
			len(sum.Results), sum.Workers, fpgaDesc,
			sum.Wall.Round(time.Millisecond), sum.WorkWall.Round(time.Millisecond),
			sum.SchedWait.Round(time.Millisecond),
			sum.DeviceWait.Round(time.Millisecond), sum.Reconfigs)
	}

	if *out != "" {
		first := sum.Results[0]
		if first.Err != nil || first.Outcome == nil {
			fmt.Fprintf(os.Stderr, "cannot write -out: first engine failed\n")
			os.Exit(1)
		}
		// Close explicitly — a deferred close would be skipped by os.Exit
		// and silently drop write-back errors.
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = flex.WriteLayout(f, first.Outcome.Layout)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote:           %s\n", *out) //flexvet:stdout the written path is part of the result report
	}
	if tracer != nil {
		// Close explicitly — a deferred close would be skipped by os.Exit
		// and silently drop write-back errors.
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = tracer.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
	os.Exit(exit)
}

// printOutcome writes one engine's result block — flexlg's stdout
// payload, byte-identical across workers x fpgas x scheduler grids and
// cmp-gated in CI.
//
//flexvet:stdout the result block is the tool's output; run commentary goes to stderr
func printOutcome(res *flex.Outcome) {
	fmt.Printf("engine:          %s\n", res.Engine)
	fmt.Printf("cells:           %d movable\n", res.Metrics.Movable)
	fmt.Printf("legal:           %v\n", res.Legal)
	fmt.Printf("aveDis (rows):   %.3f\n", res.Metrics.AveDis)
	fmt.Printf("maxDis (rows):   %.3f\n", res.Metrics.MaxDis)
	fmt.Printf("modeled seconds: %.6f\n", res.ModeledSeconds)
	if !res.Legal {
		for _, v := range res.Violations {
			fmt.Printf("violation: %v\n", v)
		}
	}
	fmt.Println()
}
