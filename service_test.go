package flex_test

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	flex "github.com/flex-eda/flex"
)

// serviceJobs is a (design × engine) grid with repeated designs, so a
// caching service gets hits within one submission and across submissions.
func serviceJobs() []flex.BatchJob {
	var jobs []flex.BatchJob
	for _, design := range []string{"fft_a_md2", "pci_b_a_md2"} {
		for _, engine := range []flex.Engine{flex.EngineFLEX, flex.EngineMGL} {
			jobs = append(jobs, flex.BatchJob{
				Design: design, Scale: 0.008, Engine: engine,
				Tag: design + "/" + engine.String(),
			})
		}
	}
	return jobs
}

// TestServiceByteIdenticalAcrossCacheWorkersFPGAs is the acceptance gate of
// the Service redesign: for every workers × fpgas × cache combination the
// serialized results must be byte-identical to a one-worker, cacheless
// baseline. The cache may only skip regeneration, never change what is
// generated.
func TestServiceByteIdenticalAcrossCacheWorkersFPGAs(t *testing.T) {
	jobs := serviceJobs()
	baseline, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{}, flex.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := layoutBytes(t, baseline)
	for _, workers := range []int{1, 4} {
		for _, fpgas := range []int{1, 2} {
			for _, cacheBytes := range []int64{0, 64 << 20} {
				svc := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas),
					flex.WithCacheBytes(cacheBytes))
				// Submit twice: the second pass exercises warm-cache reuse.
				for pass := 0; pass < 2; pass++ {
					sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{})
					if err != nil {
						t.Fatalf("workers=%d fpgas=%d cache=%d pass=%d: %v",
							workers, fpgas, cacheBytes, pass, err)
					}
					if got := layoutBytes(t, sum); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d fpgas=%d cache=%d pass=%d: results differ from the baseline",
							workers, fpgas, cacheBytes, pass)
					}
				}
				st := svc.Stats()
				if st.Batches != 2 || st.Jobs != int64(2*len(jobs)) {
					t.Fatalf("stats %+v, want 2 batches / %d jobs", st, 2*len(jobs))
				}
				if cacheBytes > 0 {
					// 2 designs generated once each; every other lookup hit.
					if st.CacheMisses != 2 {
						t.Fatalf("cache misses = %d, want 2 (one per design)", st.CacheMisses)
					}
					if want := int64(2*len(jobs) - 2); st.CacheHits != want {
						t.Fatalf("cache hits = %d, want %d", st.CacheHits, want)
					}
					if st.CacheEntries != 2 || st.CacheBytes <= 0 {
						t.Fatalf("cache residency %+v", st)
					}
				} else if st.CacheHits+st.CacheMisses != 0 {
					t.Fatalf("disabled cache recorded traffic: %+v", st)
				}
				svc.Close()
			}
		}
	}
}

func TestServiceQueueDepthOverload(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithQueueDepth(1))
	defer svc.Close()
	jobs := serviceJobs() // 4 jobs > depth 1: can never be admitted
	if _, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{}); !errors.Is(err, flex.ErrOverloaded) {
		t.Fatalf("Submit err = %v, want ErrOverloaded", err)
	}
	if _, err := svc.Stream(context.Background(), jobs, flex.SubmitOptions{}); !errors.Is(err, flex.ErrOverloaded) {
		t.Fatalf("Stream err = %v, want ErrOverloaded", err)
	}
	// A batch that fits still runs.
	sum, err := svc.Submit(context.Background(), jobs[:1], flex.SubmitOptions{})
	if err != nil || sum.Errors != 0 {
		t.Fatalf("fitting batch: sum=%+v err=%v", sum, err)
	}
	st := svc.Stats()
	if st.Overloaded != 2 {
		t.Fatalf("overloaded = %d, want 2", st.Overloaded)
	}
	if st.Batches != 1 || st.Jobs != 1 {
		t.Fatalf("stats %+v, want 1 batch / 1 job (rejected batches don't count)", st)
	}
}

func TestServiceClosedRejectsSubmissions(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1))
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), serviceJobs()[:1], flex.SubmitOptions{}); !errors.Is(err, flex.ErrServiceClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrServiceClosed", err)
	}
	if _, err := svc.Stream(context.Background(), serviceJobs()[:1], flex.SubmitOptions{}); !errors.Is(err, flex.ErrServiceClosed) {
		t.Fatalf("Stream after Close: err = %v, want ErrServiceClosed", err)
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestServiceStreamDeliversAllResults(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(3), flex.WithCacheBytes(32<<20))
	defer svc.Close()
	jobs := serviceJobs()
	var callbacks int
	ch, err := svc.Stream(context.Background(), jobs, flex.SubmitOptions{
		OnResult: func(flex.BatchResult) { callbacks++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r := range ch {
		if seen[r.Index] {
			t.Fatalf("job %d streamed twice", r.Index)
		}
		seen[r.Index] = true
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Tag, r.Err)
		}
		if !r.Outcome.Legal {
			t.Fatalf("job %s: illegal outcome", r.Tag)
		}
	}
	if len(seen) != len(jobs) || callbacks != len(jobs) {
		t.Fatalf("streamed %d results, %d callbacks, want %d", len(seen), callbacks, len(jobs))
	}
	if st := svc.Stats(); st.Jobs != int64(len(jobs)) || st.Batches != 1 {
		t.Fatalf("stats after stream: %+v", st)
	}
}

func TestServiceDeviceStatsAccumulate(t *testing.T) {
	layout, err := flex.GenerateCustom(400, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1))
	defer svc.Close()
	jobs := []flex.BatchJob{
		{Layout: layout, Engine: flex.EngineFLEX},
		{Layout: layout, Engine: flex.EngineFLEX},
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.FPGAs != 1 {
		t.Fatalf("FPGAs = %d, want 1", st.FPGAs)
	}
	if st.DeviceAcquires != 4 {
		t.Fatalf("device acquires = %d, want 4 across both submissions", st.DeviceAcquires)
	}
	if st.DeviceHold <= 0 {
		t.Fatal("no cumulative board occupancy recorded")
	}
}

// TestServiceCacheHitRate pins the hit-rate arithmetic on deterministic
// sequential submissions.
func TestServiceCacheHitRate(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithCacheBytes(32<<20))
	defer svc.Close()
	job := []flex.BatchJob{{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineMGL}}
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(context.Background(), job, flex.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", st.CacheHits, st.CacheMisses)
	}
	if got := st.CacheHitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

// scrapeService parses svc's WriteMetrics text into sample values keyed by
// the series as written: the name, plus its label set when it has one.
func scrapeService(t *testing.T, svc *flex.Service) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// seriesTotal sums the series a selector names: one exact series
// (`name{label="v"}`), or every series of a family (`name`).
func seriesTotal(samples map[string]float64, selector string) float64 {
	var total float64
	for series, v := range samples {
		if series == selector || strings.HasPrefix(series, selector+"{") {
			total += v
		}
	}
	return total
}

// TestMetricsAgreeWithStats: each count Stats reports is the number the
// service's WriteMetrics scrape serves, because both read one instrument —
// on a coordinator, on the fleet worker that ran its bands, and on a
// service that turned a submission away. Board reconfigurations are
// counted per process: the worker's board reprogrammed for each remote
// job, the coordinator, whose jobs all ran remotely, has none of its own.
func TestMetricsAgreeWithStats(t *testing.T) {
	srv, _, worker := startWorker(t)
	coord := flex.NewService(flex.WithWorkers(2), flex.WithCacheBytes(64<<20),
		flex.WithOutcomeCacheBytes(64<<20), flex.WithWorkersList(srv.URL))
	defer coord.Close()
	base, err := flex.Generate("fft_a_md2", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX},
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 2, Edits: farEdit(t, base)},
	} {
		sum, err := coord.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
		if err != nil || sum.Results[0].Err != nil {
			t.Fatalf("coordinator job: err=%v sum=%+v", err, sum)
		}
	}
	full := flex.NewService(flex.WithWorkers(1), flex.WithQueueDepth(1))
	defer full.Close()
	if _, err := full.Submit(context.Background(), serviceJobs()[:2], flex.SubmitOptions{}); !errors.Is(err, flex.ErrOverloaded) {
		t.Fatalf("two jobs on depth 1: err = %v, want ErrOverloaded", err)
	}

	for _, c := range []struct {
		name string
		svc  *flex.Service
	}{{"coordinator", coord}, {"worker", worker}, {"queue-full", full}} {
		st := c.svc.Stats()
		samples := scrapeService(t, c.svc)
		for _, want := range []struct {
			selector string
			stat     int64
		}{
			{"flex_serve_jobs_total", st.Jobs},
			{`flex_serve_jobs_total{status="error"}`, st.Errors},
			{`flex_serve_jobs_total{status="skipped"}`, st.Skipped},
			{"flex_serve_batches_total", st.Batches},
			{"flex_serve_sharded_jobs_total", st.ShardedJobs},
			{"flex_device_reconfigs_total", int64(st.Reconfigs)},
			{`flex_serve_rejects_total{reason="queue_full"}`, st.Overloaded},
			{`flex_serve_rejects_total{reason="client_queue_full"}`, st.ClientOverloaded},
			{"flex_cache_outcome_hits_total", st.OutcomeHits},
			{"flex_cache_outcome_misses_total", st.OutcomeMisses},
			{`flex_eco_jobs_total{path="incremental"}`, st.Incremental},
			{`flex_eco_jobs_total{path="fallback"}`, st.Fallbacks},
		} {
			if got := seriesTotal(samples, want.selector); got != float64(want.stat) {
				t.Errorf("%s: scrape %s = %v, Stats says %d", c.name, want.selector, got, want.stat)
			}
		}
	}

	// The agreement above is not vacuous: every family saw traffic.
	if st := coord.Stats(); st.Jobs != 2 || st.Batches != 2 || st.ShardedJobs != 1 ||
		st.Reconfigs != 0 || st.OutcomeMisses != 2 || st.Fallbacks != 1 {
		t.Errorf("coordinator stats %+v, want 2 jobs in 2 batches, 1 sharded, 0 reconfigs, 2 outcome misses, 1 fallback", st)
	}
	if st := worker.Stats(); st.Jobs != 3 || st.Reconfigs != 3 {
		t.Errorf("worker stats %+v, want 3 jobs (one plus two bands) and 3 reconfigs", st)
	}
	if st := full.Stats(); st.Overloaded != 1 || st.Batches != 0 {
		t.Errorf("queue-full stats %+v, want 1 overloaded, 0 batches", st)
	}
}
