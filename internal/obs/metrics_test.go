package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flex_serve_jobs_total", "Jobs completed.", Label{"status", "ok"})
	c.Inc()
	c.Add(2)
	c.Add(-5) // dropped: counters only go up
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %v, want 3 (the scraped total)", got)
	}
	g := r.Gauge("flex_serve_queue_depth_jobs", "Queue occupancy.")
	g.Set(7)
	g.Add(-2)
	r.GaugeFunc("flex_serve_draining_state", "1 while draining.", func() float64 { return 1 })

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP flex_serve_jobs_total Jobs completed.",
		"# TYPE flex_serve_jobs_total counter",
		`flex_serve_jobs_total{status="ok"} 3`,
		"# TYPE flex_serve_queue_depth_jobs gauge",
		"flex_serve_queue_depth_jobs 5",
		"flex_serve_draining_state 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flex_serve_job_seconds", "End-to-end job time.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE flex_serve_job_seconds histogram",
		`flex_serve_job_seconds_bucket{le="0.1"} 1`,
		`flex_serve_job_seconds_bucket{le="1"} 3`,
		`flex_serve_job_seconds_bucket{le="10"} 4`,
		`flex_serve_job_seconds_bucket{le="+Inf"} 5`,
		"flex_serve_job_seconds_sum 56.05",
		"flex_serve_job_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	// An exact bound lands in its own bucket (le semantics).
	h2 := r.Histogram("flex_device_wait_seconds", "Device wait.", []float64{1, 2})
	h2.Observe(1)
	out = scrape(t, r)
	if !strings.Contains(out, `flex_device_wait_seconds_bucket{le="1"} 1`) {
		t.Fatalf("v == bound must count in le=bound:\n%s", out)
	}
}

func TestRegistryDedupAndKindConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flex_fleet_rpc_total", "RPC attempts.", Label{"node", "n1"})
	b := r.Counter("flex_fleet_rpc_total", "RPC attempts.", Label{"node", "n1"})
	a.Inc()
	b.Inc()
	if out := scrape(t, r); !strings.Contains(out, `flex_fleet_rpc_total{node="n1"} 2`) {
		t.Fatalf("same name+labels must share one series:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.Gauge("flex_fleet_rpc_total", "now a gauge")
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("flex_x_y_total", "")
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil Counter Value = %v, want 0", c.Value())
	}
	r.Gauge("flex_x_y_jobs", "").Set(1)
	r.Histogram("flex_x_y_seconds", "", LatencyBuckets).Observe(1)
	r.CounterFunc("flex_x_z_total", "", func() float64 { return 1 })
	r.GaugeFunc("flex_x_z_jobs", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flex_sched_queue_wait_seconds", "Queue wait.", LatencyBuckets)
	c := r.Counter("flex_serve_jobs_total", "Jobs.")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%100) / 100)
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	out := scrape(t, r)
	if !strings.Contains(out, "flex_serve_jobs_total 8000") {
		t.Fatalf("lost counter increments:\n%s", out)
	}
	if !strings.Contains(out, "flex_sched_queue_wait_seconds_count 8000") {
		t.Fatalf("lost histogram observations:\n%s", out)
	}
	assertBucketsMonotone(t, out, "flex_sched_queue_wait_seconds_bucket")
}

// assertBucketsMonotone checks that the cumulative bucket counts of one
// histogram family never decrease as le grows — the exposition-format
// invariant the flexserve scrape test re-asserts under live traffic.
func assertBucketsMonotone(t *testing.T, scrape, prefix string) {
	t.Helper()
	prev := -1.0
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts decreased at %q", line)
		}
		prev = v
	}
}
