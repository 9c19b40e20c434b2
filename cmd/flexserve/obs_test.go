package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	flex "github.com/flex-eda/flex"
)

// newObsServer builds a flexserve with the full observability surface on:
// tracing and pprof (every server serves /metrics).
func newObsServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := flex.NewService(
		flex.WithWorkers(2), flex.WithCacheBytes(32<<20), flex.WithTracing(true))
	ts := httptest.NewServer(newServerWith(svc, nil, 8<<20, 0.05, 8, obsConfig{
		trace: true, pprof: true,
	}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// sample is one parsed exposition line: a metric name, its sorted label
// signature, and the value.
type sample struct {
	name   string
	labels string
	value  float64
}

// parsePrometheus is a strict test-local parser for the text exposition
// format version 0.0.4: it checks HELP/TYPE structure and returns every
// sample line. Unparseable lines fail the test — the scrape contract is
// that a vanilla Prometheus server can ingest /metrics verbatim.
func parsePrometheus(t *testing.T, body string) []sample {
	t.Helper()
	var samples []sample
	typed := map[string]string{}
	lineRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		labels := strings.Split(m[3], ",")
		sort.Strings(labels)
		samples = append(samples, sample{name: m[1], labels: strings.Join(labels, ","), value: v})
	}
	if len(typed) == 0 {
		t.Fatalf("no TYPE comments in exposition:\n%s", body)
	}
	return samples
}

// scrape fetches /metrics and parses it, checking the content type.
func scrape(t *testing.T, ts *httptest.Server) []sample {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("scrape: content type %q, want text exposition 0.0.4", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return parsePrometheus(t, string(b))
}

// postJobs submits n design jobs and consumes the NDJSON stream, returning
// the result lines. It fails the test, so only the test goroutine may call
// it; client goroutines call tryPostJobs.
func postJobs(t *testing.T, ts *httptest.Server, n int) []resultLine {
	t.Helper()
	lines, err := tryPostJobs(ts, n)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// tryPostJobs is postJobs reporting failure as an error.
func tryPostJobs(ts *httptest.Server, n int) ([]resultLine, error) {
	var sb strings.Builder
	sb.WriteString(`{"jobs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"design":"fft_a_md2","scale":0.01,"tag":"j%d"}`, i)
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		return nil, fmt.Errorf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("post: status %d: %s", resp.StatusCode, b)
	}
	lines, sum, err := parseNDJSON(bufio.NewScanner(resp.Body))
	if err != nil {
		return nil, err
	}
	if !sum.Done {
		return nil, errors.New("stream ended without a done summary")
	}
	return lines, nil
}

// TestMetricsScrapeUnderTraffic is the exposition-contract test: scrape
// /metrics repeatedly while concurrent legalize traffic runs (the -race
// build makes this a data-race probe too), and assert on every scrape that
// histogram bucket counts are monotone in le and consistent with +Inf and
// _count, and across scrapes that counters never go backwards.
func TestMetricsScrapeUnderTraffic(t *testing.T) {
	ts := newObsServer(t)

	const clients, rounds, scrapes = 3, 3, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := tryPostJobs(ts, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Even when a scrape check below fails the test, wait for the clients:
	// the server's cleanup closes it, and no client may post to a closed
	// server or log after the test ends.
	defer wg.Wait()
	prevCounters := map[string]float64{}
	counterNames := map[string]bool{
		"flex_serve_jobs_total":               true,
		"flex_serve_rejects_total":            true,
		"flex_device_reconfigs_total":         true,
		"flex_cache_layout_hits_total":        true,
		"flex_cache_layout_misses_total":      true,
		"flex_sched_queue_wait_seconds":       false, // histograms checked separately
		"flex_serve_sharded_jobs_total":       true,
		"flex_serve_queue_depth_jobs":         false,
		"flex_serve_draining_state":           false,
		"flex_serve_build_info":               false,
		"flex_device_wait_seconds_count":      true,
		"flex_device_hold_seconds_count":      true,
		"flex_serve_job_seconds_count":        true,
		"flex_sched_queue_wait_seconds_count": true,
	}
	for i := 0; i < scrapes; i++ {
		samples := scrape(t, ts)
		checkHistograms(t, samples)
		for _, s := range samples {
			if !counterNames[s.name] {
				continue
			}
			key := s.name + "{" + s.labels + "}"
			if prev, ok := prevCounters[key]; ok && s.value < prev {
				t.Fatalf("counter %s went backwards: %v -> %v", key, prev, s.value)
			}
			prevCounters[key] = s.value
		}
		if i == scrapes/2 {
			// Let some traffic land between the early and late scrapes.
			postJobs(t, ts, 1)
		}
	}
	wg.Wait()

	// After all traffic, the end-to-end histogram must have observed the
	// jobs and the queue-wait histogram must exist alongside it.
	final := scrape(t, ts)
	var jobCount float64
	seen := map[string]bool{}
	for _, s := range final {
		seen[s.name] = true
		if s.name == "flex_serve_job_seconds_count" {
			jobCount += s.value
		}
	}
	if jobCount < float64(clients*rounds*2) {
		t.Fatalf("flex_serve_job_seconds_count = %v, want >= %d", jobCount, clients*rounds*2)
	}
	for _, want := range []string{
		"flex_sched_queue_wait_seconds_bucket",
		"flex_device_wait_seconds_bucket",
		"flex_device_hold_seconds_bucket",
		"flex_serve_job_seconds_bucket",
		"flex_serve_jobs_total",
		"flex_serve_queue_depth_jobs",
		"flex_serve_build_info",
	} {
		if !seen[want] {
			t.Fatalf("metric family %s missing from final scrape", want)
		}
	}
}

// checkHistograms asserts, within one scrape, that every *_bucket series is
// monotone non-decreasing in le, that the +Inf bucket equals _count, and
// that _sum is present.
func checkHistograms(t *testing.T, samples []sample) {
	t.Helper()
	type bucket struct {
		le    float64
		count float64
	}
	buckets := map[string][]bucket{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			base := strings.TrimSuffix(s.name, "_bucket")
			var le float64
			rest := make([]string, 0, 4)
			for _, l := range strings.Split(s.labels, ",") {
				if v, ok := strings.CutPrefix(l, `le="`); ok {
					v = strings.TrimSuffix(v, `"`)
					if v == "+Inf" {
						le = 1e308
					} else {
						f, err := strconv.ParseFloat(v, 64)
						if err != nil {
							t.Fatalf("bad le in %s{%s}: %v", s.name, s.labels, err)
						}
						le = f
					}
					continue
				}
				rest = append(rest, l)
			}
			key := base + "{" + strings.Join(rest, ",") + "}"
			buckets[key] = append(buckets[key], bucket{le: le, count: s.value})
		case strings.HasSuffix(s.name, "_count"):
			counts[strings.TrimSuffix(s.name, "_count")+"{"+s.labels+"}"] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			sums[strings.TrimSuffix(s.name, "_sum")+"{"+s.labels+"}"] = true
		}
	}
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].count < bs[i-1].count {
				t.Fatalf("%s: bucket counts not monotone: le=%v has %v < %v",
					key, bs[i].le, bs[i].count, bs[i-1].count)
			}
		}
		inf := bs[len(bs)-1]
		if inf.le < 1e308 {
			t.Fatalf("%s: no +Inf bucket", key)
		}
		if c, ok := counts[key]; !ok || c != inf.count {
			t.Fatalf("%s: +Inf bucket %v != _count %v", key, inf.count, c)
		}
		if !sums[key] {
			t.Fatalf("%s: missing _sum", key)
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("no histogram buckets in scrape")
	}
}

// TestResultLinesCarryTraceIDs asserts that with tracing on every result
// line reports a 16-hex trace ID, and that without it the field is absent
// from the wire format entirely.
func TestResultLinesCarryTraceIDs(t *testing.T) {
	ts := newObsServer(t)
	idRe := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, line := range postJobs(t, ts, 3) {
		if !idRe.MatchString(line.Trace) {
			t.Fatalf("result line %d: trace %q, want 16 hex digits", line.Index, line.Trace)
		}
	}

	// Tracing off: the JSON must not even contain the key (omitempty), so
	// observability off is byte-identical to the pre-tracing wire format.
	plain := newTestServer(t)
	resp, err := http.Post(plain.URL+"/v1/legalize", "application/json",
		strings.NewReader(`{"jobs":[{"design":"fft_a_md2","scale":0.01}]}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(raw), `"trace"`) {
		t.Fatalf("tracing off but response contains a trace field:\n%s", raw)
	}
}

// TestCacheDirWarningsUseServerLogger: a corrupt file in -cache-dir is
// reported as one WARN record naming the file in the server's structured
// log, so -log-level governs it like every other server line.
func TestCacheDirWarningsUseServerLogger(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, strings.Repeat("0", 64)+".json")
	if err := os.WriteFile(bad, []byte("not an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelInfo}))
	svc := flex.NewService(flex.WithWorkers(1), flex.WithCacheDir(dir), flex.WithLogger(logger))
	ts := httptest.NewServer(newServerWith(svc, nil, 8<<20, 0.05, 8, obsConfig{log: logger}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	var warns []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "level=WARN") {
			warns = append(warns, line)
		}
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "path="+bad) {
		t.Fatalf("server log WARN records %q, want one naming %s", warns, bad)
	}
}

// TestBuildInfoEndpoint asserts /v1/buildinfo serves the build identity
// and is mounted even without a metric registry.
func TestBuildInfoEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/buildinfo")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	// Revision/time are omitted when the binary was built without VCS
	// stamping (as in `go test`), so only the always-present keys are
	// asserted here.
	for _, key := range []string{`"module"`, `"version"`, `"go"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("buildinfo missing %s:\n%s", key, b)
		}
	}
}

// TestObsEndpointGating asserts that /debug/pprof/* is 404 on a server
// built without it and live on one built with it; /metrics is live on both.
func TestObsEndpointGating(t *testing.T) {
	plain := newTestServer(t)
	for path, want := range map[string]int{"/metrics": http.StatusOK, "/debug/pprof/": http.StatusNotFound} {
		resp, err := http.Get(plain.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s on plain server: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	obsTS := newObsServer(t)
	for _, path := range []string{"/metrics", "/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(obsTS.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on obs server: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// scrapeFamilies fetches a server's /metrics and returns the family names
// its TYPE lines declare.
func scrapeFamilies(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	families := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}
	return families
}

// documentedFamilies reads the metric inventory table of
// docs/OBSERVABILITY.md: the first cell of every row naming a flex_
// family. A cell "`a_hits_total` / `_misses_total`" names two families;
// the suffix replaces as many trailing segments of the first name as it
// has.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `flex_") {
			continue
		}
		cell := strings.Split(line, "|")[1]
		var first string
		for _, name := range strings.Split(cell, "/") {
			name = strings.Trim(strings.TrimSpace(name), "`")
			if first == "" {
				first = name
			} else {
				segs := strings.Split(first, "_")
				name = strings.Join(segs[:len(segs)-strings.Count(name, "_")], "_") + name
			}
			families[name] = true
		}
	}
	return families
}

// TestMetricInventoryMatchesDocs: the families a single-process server
// (both caches on, after one job) and a fleet coordinator serve on
// /metrics are exactly the families docs/OBSERVABILITY.md's table lists —
// a family added without a row, or a row whose family is gone, fails.
func TestMetricInventoryMatchesDocs(t *testing.T) {
	single := newTestServer(t, flex.WithWorkers(2), flex.WithCacheBytes(32<<20),
		flex.WithOutcomeCacheBytes(32<<20))
	postJobs(t, single, 1)

	wsvc := flex.NewService(flex.WithWorkers(1))
	worker := httptest.NewServer(newServer(wsvc, flex.NewFleetWorker(wsvc), 8<<20, 0.05, 8))
	t.Cleanup(func() {
		worker.Close()
		wsvc.Close()
	})
	coord := newTestServer(t, flex.WithWorkers(2), flex.WithWorkersList(worker.URL))

	served := scrapeFamilies(t, single.URL)
	for name := range scrapeFamilies(t, coord.URL) {
		served[name] = true
	}
	documented := documentedFamilies(t)
	for name := range served {
		if !documented[name] {
			t.Errorf("%s is served on /metrics but has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range documented {
		if !served[name] {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which no server serves", name)
		}
	}
}

// TestRetryAfterSeconds pins the one Retry-After estimate both 429 paths
// and /v1/stats use: ceil(queued / workers) seconds, clamped to [1, 60],
// and 1 when the worker count is unknown.
func TestRetryAfterSeconds(t *testing.T) {
	for _, c := range []struct{ queued, workers, want int }{
		{0, 0, 1}, {1, 0, 1}, {1000, 0, 1},
		{0, 2, 1}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {60 * 2, 2, 60}, {60*2 + 1, 2, 60}, {1000, 2, 60},
	} {
		if got := retryAfterSeconds(c.queued, c.workers); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.queued, c.workers, got, c.want)
		}
	}
}
