// Command flexbench regenerates every table and figure of the FLEX paper's
// evaluation section on the synthetic IC/CAD 2017 suite.
//
// Usage:
//
//	flexbench [-exp all|table1|table2|fig2a|fig2b|fig2c|fig2g|fig6g|fig8|fig9|fig10
//	           |scalability|ordering|sharded|sched|eco|bench]
//	          [-scale 0.02] [-designs name1,name2] [-threads 8] [-measure-original]
//	          [-workers N] [-fpgas N] [-cache-mb M] [-repeat N]
//	          [-shards K] [-shard-halo R] [-eco-bands 8] [-eco-halo 1] [-eco-edits 8]
//	          [-sched priority|fifo] [-priority P] [-reconfig-ms D] [-sched-jobs J]
//	          [-bench-out BENCH_n.json]
//
// -exp sharded runs the row-band sharding extension: each selected design
// is split into -shards horizontal bands (with a -shard-halo seam window),
// every band legalized by the FLEX engine as an independent pool job, and
// the bands stitched back into one whole-die result. Designs run one after
// another so only one design's bands are ever resident — the path that
// fits paper-scale superblue runs (reach them with
// -designs superblue19 -scale 0.5 or larger). Per-band wall and device
// wait land on stderr; the table stays deterministic.
//
// -workers bounds how many (design × engine) jobs run concurrently (0 =
// GOMAXPROCS); -fpgas sets how many physical accelerator boards the host
// models (default 1, the paper's single Alveo card) — concurrent FLEX jobs
// serialize their device phase on the boards while CPU-only jobs overlap.
// Engines are deterministic, so every workers × fpgas combination prints
// byte-identical tables; -workers 1 forces the old serial behaviour.
//
// One invocation runs every selected driver on one shared service: a
// long-lived worker pool plus — with -cache-mb — a byte-bounded layout
// cache memoizing generated benchmarks by (design, scale, seed), so
// drivers that share designs skip regeneration. -repeat N re-runs the
// selected experiments N times on the same warm service, the measurement
// mode for cache effectiveness (stdout repeats the identical tables; wall
// time and cache hit/miss deltas land on stderr). Caching never changes a
// table — only where the layouts come from.
//
// -exp eco measures the incremental (ECO) legalization path: each design is
// legalized once across -eco-bands row bands, then -eco-edits single-cell
// in-halo moves are served both incrementally (only the dirty bands
// re-solve; the clean bands splice from the base run) and as full re-runs.
// The driver fails hard unless every incremental result is byte-identical
// to its full re-run; the table reports the modeled edit-stream speedup the
// dirty-band path buys (T_full / T_inc — the flex.Service outcome cache
// realizes the same reuse for served traffic).
//
// -sched selects the pool's queue policy (priority, the default:
// effective priority with aging, EDF within a level, weighted fair share;
// fifo restores strict arrival order); -priority stamps every driver job's
// class, and -reconfig-ms charges a modeled board-programming delay
// whenever consecutive holders of one FPGA come from different jobs.
// Scheduling never changes a rendered table — only wall-clock and the
// stderr wait statistics move.
//
// -exp sched is the scheduling experiment: -sched-jobs identical FLEX jobs
// per priority class (bulk 0, normal 4, urgent 8, submitted bulk-first —
// the adversarial order for FIFO) contend for the shared workers and
// boards; the table pins the deterministic class setup while per-class
// p50/p99/max queue waits land on stderr. Under contention the priority
// scheduler pulls the urgent class's p99 wait strictly below the bulk
// class's; rerun with -sched fifo to watch the classes wait alike.
//
// Scheduling behaviour (device wait vs CPU overlap, cache hits vs misses)
// is reported per driver and per repetition on stderr, leaving stdout
// comparable across configurations.
//
// -bench-out path writes the run's perf-trajectory record: one
// internal/benchjson document with the deterministic facts — op counts,
// modeled seconds, quality, cache and device counters — of every
// (design, engine, config) the table1, sharded, sched and eco drivers
// measured. Wall clock never enters the file, so two runs of the same
// binary are byte-identical and cmd/benchdiff can gate regressions in CI.
// -exp bench is the canonical recording selection (exactly those four
// drivers); with -repeat N only the first repetition records. Record with
// -workers 1: board-reconfiguration counts are order-dependent under
// concurrency, and flexbench warns when -bench-out runs with any other
// worker count. See docs/BENCHMARKING.md for the methodology.
//
// Absolute numbers depend on the scale factor and the platform models; the
// shapes (who wins, by what factor, where the crossovers are) are the
// reproduction target. See docs/ARCHITECTURE.md for the system pipeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/cache"
	"github.com/flex-eda/flex/internal/experiments"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// reportStats prints one driver's pool statistics — CPU overlap achieved by
// the workers and contention on the modeled FPGA boards — to stderr so that
// stdout stays byte-identical across scheduling configurations.
func reportStats(name string, st batch.Stats) {
	if st.Jobs == 0 {
		return
	}
	// Overlap counts compute only: a job's wall clock keeps running while
	// it queues for a board, and that idle time is not CPU overlap.
	overlap := 0.0
	if compute := st.WorkWall - st.DeviceWait; st.Wall > 0 && compute > 0 {
		overlap = float64(compute) / float64(st.Wall)
	}
	fpgas := "unlimited"
	if st.FPGAs > 0 {
		fpgas = fmt.Sprint(st.FPGAs)
	}
	fmt.Fprintf(os.Stderr,
		"%s: %d jobs / %d workers: wall %v, summed job wall %v (cpu overlap %.2fx); fpgas=%s: %d device acquires (%d contended), wait %v, hold %v\n",
		name, st.Jobs, st.Workers, st.Wall, st.WorkWall, overlap,
		fpgas, st.DeviceAcquires, st.DeviceContended, st.DeviceWait, st.DeviceHold)
	if st.DeviceReconfigs > 0 && st.DeviceReconfigTime > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d board reconfigurations, %v modeled programming time\n",
			name, st.DeviceReconfigs, st.DeviceReconfigTime.Round(time.Millisecond))
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, table2, fig2a, fig2b, fig2c, fig2g, fig6g, fig8, fig9, fig10, scalability, ordering, sharded, sched, eco, bench)")
	scale := flag.Float64("scale", 0.02, "benchmark scale factor (1.0 = paper-size designs)")
	designs := flag.String("designs", "", "comma-separated design filter (default: all 16)")
	threads := flag.Int("threads", 8, "CPU baseline thread count")
	measure := flag.Bool("measure-original", false, "instrument the original multi-pass shifting (slower, more faithful)")
	workers := flag.Int("workers", 0, "concurrent (design × engine) jobs per driver (0 = GOMAXPROCS, 1 = serial)")
	fpgas := flag.Int("fpgas", 1, "modeled FPGA boards shared by concurrent FLEX jobs (negative = unlimited)")
	cacheMB := flag.Int("cache-mb", 0, "layout cache budget in MiB, shared by every driver and repetition (0 = off)")
	repeat := flag.Int("repeat", 1, "run the selected experiments N times on the same warm service")
	shards := flag.Int("shards", 4, "row bands per design for -exp sharded (1 = single band through the shard machinery)")
	shardHalo := flag.Int("shard-halo", 2, "seam-crossing reassignment window in rows for -exp sharded")
	ecoBands := flag.Int("eco-bands", 8, "row bands per design for -exp eco (more bands = less dirty work per edit)")
	ecoHalo := flag.Int("eco-halo", 1, "split halo in rows for -exp eco (a single-cell move dirties one band when its halo-expanded span stays inside the band)")
	ecoEdits := flag.Int("eco-edits", 8, "in-halo cell moves per design for -exp eco")
	schedName := flag.String("sched", "priority", "queue policy for workers and boards (priority, fifo)")
	priority := flag.Int("priority", 0, "scheduling priority stamped on every driver job (higher runs earlier)")
	reconfigMS := flag.Int("reconfig-ms", 0, "modeled FPGA reconfiguration delay in ms when consecutive board holders differ (0 = counted, free)")
	schedJobs := flag.Int("sched-jobs", 8, "jobs per priority class for -exp sched")
	benchOut := flag.String("bench-out", "", "write the deterministic perf-trajectory record (BENCH_*.json) of the table1/sharded/sched/eco drivers to this path")
	traceOut := flag.String("trace-out", "", "write one span per driver run as Chrome trace-viewer JSON (chrome://tracing / Perfetto) to this path")
	flag.Parse()

	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One shared service per invocation: every driver batch runs on this
	// pool, and (with -cache-mb) resolves generated layouts through this
	// cache — so repeated designs, within a repetition and across -repeat
	// runs, are built once.
	pool := batch.NewPool(batch.PoolConfig{
		Workers: *workers, FPGAs: *fpgas,
		Policy:       policy,
		ReconfigCost: time.Duration(*reconfigMS) * time.Millisecond,
	})
	defer pool.Close()
	var layouts *cache.LRU
	if *cacheMB > 0 {
		layouts = cache.New(int64(*cacheMB) << 20)
	}

	// -bench-out: collect the deterministic perf trajectory of this run.
	// Only op counts, modeled seconds, quality and the deterministic
	// service counters enter the file — never wall clock — so re-running
	// the same binary yields byte-identical JSON.
	var bench *benchjson.File
	if *benchOut != "" {
		bench = benchjson.New(
			benchjson.Env{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
			benchjson.Config{
				Scale: *scale, Designs: *designs, Threads: *threads,
				Workers: *workers, FPGAs: *fpgas, CacheMB: *cacheMB,
				Shards: *shards, ShardHalo: *shardHalo,
				SchedJobs: *schedJobs, Sched: *schedName,
			})
		if *workers != 1 {
			fmt.Fprintln(os.Stderr, "bench-out: board-reconfiguration counts are order-dependent with concurrent workers; record the trajectory with -workers 1 for byte-stable files")
		}
	}

	opt := experiments.Options{
		Scale:           *scale,
		Threads:         *threads,
		MeasureOriginal: *measure,
		Pool:            pool,
		Layouts:         layouts,
		Priority:        *priority,
	}
	if *designs != "" {
		opt.Designs = strings.Split(*designs, ",")
	}

	// runWithStats drives one driver with a fresh stats sink and reports
	// its scheduling behaviour; run additionally applies the -exp filter
	// used by the paper experiments (the extension experiments below are
	// excluded from "all" and filter themselves). -exp bench is the
	// canonical recording selection: exactly the drivers that emit
	// benchjson records.
	benchable := map[string]bool{"table1": true, "sharded": true, "sched": true, "eco": true}
	rep := 1
	// -trace-out records one root span per driver run. Trace files carry
	// wall clock by design; the stdout tables and BENCH files never do.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	runWithStats := func(name string, f func(experiments.Options) error) {
		var st batch.Stats
		o := opt
		o.Stats = &st
		var drec *obs.Recorder
		var dstart time.Time
		if tracer != nil {
			drec = obs.NewRecorder(name)
			//flexvet:walltime driver span timing is trace telemetry only
			dstart = time.Now()
		}
		var rec *benchjson.Experiment
		if bench != nil && rep == 1 && benchable[name] {
			rec = bench.Experiment(name)
			o.Bench = rec
		}
		var before cache.Stats
		if layouts != nil {
			before = layouts.Stats()
		}
		if err := f(o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		reportStats(name, st)
		if layouts != nil {
			// Per-driver cache delta, every experiment alike, so the
			// stderr accounting and the BENCH record agree.
			after := layouts.Stats()
			fmt.Fprintf(os.Stderr, "%s: cache +%d hits, +%d misses\n",
				name, after.Hits-before.Hits, after.Misses-before.Misses)
			if rec != nil {
				rec.Cache = &benchjson.CacheStats{
					Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
			}
		}
		if rec != nil {
			rec.Device = &benchjson.DeviceStats{
				Acquires: int64(st.DeviceAcquires), Reconfigs: int64(st.DeviceReconfigs)}
		}
		if drec != nil {
			//flexvet:walltime driver span timing is trace telemetry only
			drec.Record("driver", fmt.Sprintf("repetition %d/%d", rep, *repeat), dstart, time.Now())
			tracer.Add(drec)
		}
	}
	ran := false
	run := func(name string, f func(experiments.Options) error) {
		if *exp != "all" && *exp != name && !(*exp == "bench" && name == "table1") {
			return
		}
		ran = true
		fmt.Printf("==> %s\n", name) //flexvet:stdout section headers are part of the byte-compared tables
		runWithStats(name, f)
		fmt.Println() //flexvet:stdout section separator, part of the byte-compared tables
	}

	runSelected := func() {
		run("table1", func(o experiments.Options) error {
			rows, err := experiments.Table1(o)
			if err != nil {
				return err
			}
			experiments.RenderTable1(rows).Render(os.Stdout)
			return nil
		})
		run("table2", func(o experiments.Options) error {
			experiments.Table2().Render(os.Stdout)
			return nil
		})
		run("fig2a", func(o experiments.Options) error {
			pts, err := experiments.Fig2a(o)
			if err != nil {
				return err
			}
			experiments.RenderFig2a(pts).Render(os.Stdout, 40)
			return nil
		})
		run("fig2b", func(o experiments.Options) error {
			pts, err := experiments.Fig2b(o)
			if err != nil {
				return err
			}
			experiments.RenderFig2b(pts).Render(os.Stdout, 40)
			return nil
		})
		run("fig2c", func(o experiments.Options) error {
			pts, err := experiments.Fig2c(o)
			if err != nil {
				return err
			}
			experiments.RenderFig2c(pts).Render(os.Stdout)
			return nil
		})
		run("fig2g", func(o experiments.Options) error {
			pts, err := experiments.Fig2g(o)
			if err != nil {
				return err
			}
			experiments.RenderFig2g(pts).Render(os.Stdout, 40)
			return nil
		})
		run("fig6g", func(o experiments.Options) error {
			pts, err := experiments.Fig6g(o)
			if err != nil {
				return err
			}
			experiments.RenderFig6g(pts).Render(os.Stdout)
			return nil
		})
		run("fig8", func(o experiments.Options) error {
			pts, err := experiments.Fig8(o)
			if err != nil {
				return err
			}
			experiments.RenderFig8(pts).Render(os.Stdout)
			return nil
		})
		run("fig9", func(o experiments.Options) error {
			pts, err := experiments.Fig9(o)
			if err != nil {
				return err
			}
			experiments.RenderFig9(pts).Render(os.Stdout)
			return nil
		})
		run("fig10", func(o experiments.Options) error {
			pts, err := experiments.Fig10(o)
			if err != nil {
				return err
			}
			experiments.RenderFig10(pts).Render(os.Stdout, 40)
			return nil
		})
		// Extension experiments (not paper figures).
		if *exp == "scalability" {
			ran = true
			fmt.Println("==> scalability") //flexvet:stdout section header, part of the byte-compared tables
			runWithStats("scalability", func(o experiments.Options) error {
				pts, err := experiments.Scalability(o, 5)
				if err != nil {
					return err
				}
				experiments.RenderScalability(pts).Render(os.Stdout)
				return nil
			})
		}
		if *exp == "ordering" {
			ran = true
			fmt.Println("==> ordering") //flexvet:stdout section header, part of the byte-compared tables
			runWithStats("ordering", func(o experiments.Options) error {
				pts, err := experiments.OrderingAblation(o)
				if err != nil {
					return err
				}
				experiments.RenderOrdering(pts).Render(os.Stdout)
				return nil
			})
		}
		if *exp == "sched" || *exp == "bench" {
			ran = true
			fmt.Println("==> sched") //flexvet:stdout section header, part of the byte-compared tables
			runWithStats("sched", func(o experiments.Options) error {
				pts, err := experiments.Sched(o, *schedJobs)
				if err != nil {
					return err
				}
				experiments.RenderSched(pts).Render(os.Stdout)
				// Wait distributions are wall-clock scheduling facts: they
				// belong on stderr, keeping stdout byte-comparable across
				// -sched/-workers/-fpgas configurations.
				for _, p := range pts {
					fmt.Fprintf(os.Stderr,
						"sched class %s (prio %d): %d jobs, queue wait p50 %v p99 %v max %v, fpga wait %v\n",
						p.Label, p.Priority, p.Jobs,
						p.P50Wait.Round(time.Millisecond),
						p.P99Wait.Round(time.Millisecond),
						p.MaxWait.Round(time.Millisecond),
						p.DeviceWait.Round(time.Millisecond))
				}
				return nil
			})
		}
		if *exp == "eco" || *exp == "bench" {
			ran = true
			fmt.Println("==> eco") //flexvet:stdout section header, part of the byte-compared tables
			runWithStats("eco", func(o experiments.Options) error {
				pts, err := experiments.Eco(o, *ecoBands, *ecoHalo, *ecoEdits)
				if err != nil {
					return err
				}
				experiments.RenderEco(pts).Render(os.Stdout)
				return nil
			})
		}
		if *exp == "sharded" || *exp == "bench" {
			ran = true
			fmt.Println("==> sharded") //flexvet:stdout section header, part of the byte-compared tables
			runWithStats("sharded", func(o experiments.Options) error {
				pts, err := experiments.Sharded(o, *shards, *shardHalo)
				if err != nil {
					return err
				}
				experiments.RenderSharded(pts).Render(os.Stdout)
				// Per-shard scheduling observations are wall-clock facts,
				// so they go to stderr and leave stdout byte-comparable
				// across workers × fpgas.
				for _, p := range pts {
					for b := range p.BandWall {
						fmt.Fprintf(os.Stderr, "%s band %d/%d: %d cells, wall %v, fpga wait %v\n",
							p.Name, b+1, p.Bands, p.BandCells[b],
							p.BandWall[b].Round(time.Millisecond),
							p.BandWait[b].Round(time.Millisecond))
					}
				}
				return nil
			})
		}
	} // end runSelected

	if *repeat < 1 {
		*repeat = 1
	}
	var prev cache.Stats
	for rep = 1; rep <= *repeat; rep++ {
		start := time.Now() //flexvet:walltime per-repetition wall for the stderr run line
		runSelected()
		if layouts != nil || *repeat > 1 {
			//flexvet:walltime the run line goes to stderr; stdout tables stay clock-free
			line := fmt.Sprintf("run %d/%d: wall %v", rep, *repeat, time.Since(start).Round(time.Millisecond))
			if layouts != nil {
				st := layouts.Stats()
				line += fmt.Sprintf("; cache: +%d hits, +%d misses (total %d/%d, %d entries, %.1f MiB resident)",
					st.Hits-prev.Hits, st.Misses-prev.Misses, st.Hits, st.Misses,
					st.Entries, float64(st.Bytes)/(1<<20))
				prev = st
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if !ran {
		// A typoed -exp must not succeed vacuously — it would turn the
		// CI byte-compare gate into cmp of two empty files.
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, table1, table2, fig2a, fig2b, fig2c, fig2g, fig6g, fig8, fig9, fig10, scalability, ordering, sharded, sched, eco, bench)\n", *exp)
		os.Exit(2)
	}
	if bench != nil {
		recorded := 0
		for _, e := range bench.Experiments {
			recorded += len(e.Records)
		}
		if recorded == 0 {
			fmt.Fprintf(os.Stderr, "bench-out: the selected experiments recorded nothing (only table1, sharded, sched and eco record; use -exp bench)\n")
			os.Exit(2)
		}
		if err := bench.WriteFile(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench-out: wrote %s (%d experiments, %d records)\n",
			*benchOut, len(bench.Experiments), recorded)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		err = tracer.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace-out: wrote %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
}
