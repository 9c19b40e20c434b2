package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	flex "github.com/flex-eda/flex"
)

// newTestServer builds a server over a small real Service.
func newTestServer(t *testing.T, opts ...flex.ServiceOption) *httptest.Server {
	t.Helper()
	if len(opts) == 0 {
		opts = []flex.ServiceOption{flex.WithWorkers(2), flex.WithCacheBytes(32 << 20)}
	}
	svc := flex.NewService(opts...)
	ts := httptest.NewServer(newServer(svc, nil, 8<<20, 0.05, 8))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// decodeNDJSON parses a streaming response body: result lines then the
// summary line.
func decodeNDJSON(t *testing.T, body *bufio.Scanner) ([]resultLine, summaryLine) {
	t.Helper()
	var results []resultLine
	var sum summaryLine
	sawDone := false
	for body.Scan() {
		line := strings.TrimSpace(body.Text())
		if line == "" {
			continue
		}
		if sawDone {
			t.Fatalf("line after summary: %s", line)
		}
		var probe map[string]any
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		if _, ok := probe["done"]; ok {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatal(err)
			}
			sawDone = true
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if !sawDone {
		t.Fatal("stream ended without a summary line")
	}
	return results, sum
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestLegalizeDesignRefs(t *testing.T) {
	ts := newTestServer(t)
	req := `{"jobs":[
		{"design":"fft_a_md2","scale":0.008,"engine":"flex","tag":"a"},
		{"design":"fft_a_md2","scale":0.008,"engine":"mgl","tag":"b"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	if len(results) != 2 || sum.Jobs != 2 || sum.Errors != 0 || !sum.Done {
		t.Fatalf("results %+v summary %+v", results, sum)
	}
	seen := map[int]resultLine{}
	for _, r := range results {
		seen[r.Index] = r
		if r.Error != "" || r.Legal == nil || !*r.Legal {
			t.Fatalf("bad result %+v", r)
		}
		if r.ModeledSeconds <= 0 || r.Movable <= 0 {
			t.Fatalf("missing metrics in %+v", r)
		}
	}
	if seen[0].Engine != "FLEX" || seen[0].Tag != "a" {
		t.Fatalf("job 0 %+v", seen[0])
	}
	if seen[1].Engine != "MGL" || seen[1].Tag != "b" {
		t.Fatalf("job 1 %+v", seen[1])
	}
	if sum.ModeledSeconds <= 0 {
		t.Fatalf("summary %+v", sum)
	}

	// The same design twice: the second lookup must have hit the cache.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 2 || st.Batches != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestLegalizeRawFlexplPayload(t *testing.T) {
	layout, err := flex.GenerateCustom(300, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := flex.WriteLayout(&sb, layout); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/legalize?engine=analytical&tag=raw", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	if len(results) != 1 || sum.Errors != 0 {
		t.Fatalf("results %+v summary %+v", results, sum)
	}
	if results[0].Tag != "raw" || results[0].Engine != "ISPD'25" {
		t.Fatalf("result %+v", results[0])
	}
}

// TestDegenerateDieUploadRejected posts a die with negative rows. The
// legality check once sized a per-row array from it and panicked on a pool
// goroutine, taking the process down; now the upload gets a 400 and the
// server keeps serving.
func TestDegenerateDieUploadRejected(t *testing.T) {
	testDieUploadRejected(t, "flexpl 1\ndesign d\ndie 8 -4 8\ncells 1\na 0 0 2 1 any 0\n",
		"needs at least one site and one row")
}

// TestHugeDieUploadRejected posts a billion-square die holding one cell.
// It used to decode, and the legality check's per-row array then ran the
// process out of memory, which no recover catches; now Decode rejects the
// die as out of proportion to its cells and the upload gets a 400.
func TestHugeDieUploadRejected(t *testing.T) {
	testDieUploadRejected(t, "flexpl 1\ndesign d\ndie 1000000000 1000000000 8\ncells 1\na 0 0 2 1 any 0\n",
		"die 1000000000 x 1000000000 is out of proportion to its cell count 1")
}

// TestHugeCellUploadRejected posts an 8-row die holding a fixed cell 10^12
// rows tall. It used to decode, and measuring the result then ran the
// process out of memory; now Decode rejects the cell as larger than its
// die and the upload gets a 400.
func TestHugeCellUploadRejected(t *testing.T) {
	testDieUploadRejected(t, "flexpl 1\ndesign d\ndie 8 8 8\ncells 1\nb 10 0 2 1000000000000 any 1\n",
		"cell b of size 2x1000000000000 is larger than its 8 x 8 die")
}

// testDieUploadRejected posts bad, wants a 400 whose error contains
// wantErr, then posts a valid upload and wants it legalized.
func testDieUploadRejected(t *testing.T, bad, wantErr string) {
	t.Helper()
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/legalize", "text/plain", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, wantErr) {
		t.Fatalf("status %d, error %q: want 400 naming the die", resp.StatusCode, eb.Error)
	}

	good := "flexpl 1\ndesign d\ndie 8 4 8\ncells 1\na 0 0 2 1 any 0\n"
	resp, err = http.Post(ts.URL+"/v1/legalize", "text/plain", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid upload after the rejected one: status %d", resp.StatusCode)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	if len(results) != 1 || sum.Errors != 0 || results[0].Legal == nil || !*results[0].Legal {
		t.Fatalf("results %+v summary %+v", results, sum)
	}
}

func TestLegalizeIncludeLayoutRoundTrips(t *testing.T) {
	ts := newTestServer(t)
	req := `{"jobs":[{"design":"fft_a_md2","scale":0.008}],"includeLayout":true}`
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20) // layout lines are big
	results, _ := decodeNDJSON(t, sc)
	if len(results) != 1 || results[0].Layout == "" {
		t.Fatalf("no layout echoed: %+v", results)
	}
	l, err := flex.ReadLayout(strings.NewReader(results[0].Layout))
	if err != nil {
		t.Fatalf("echoed layout does not parse: %v", err)
	}
	if got := flex.Check(l, 1); len(got) != 0 {
		t.Fatalf("echoed layout illegal: %v", got)
	}
}

func TestLegalizeMalformedRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name, body, wantSub string
	}{
		{"broken JSON", `{"jobs":`, "invalid JSON"},
		{"no jobs", `{"jobs":[]}`, "no jobs"},
		{"neither design nor layout", `{"jobs":[{"engine":"flex"}]}`, "one of design, layout or base"},
		{"both design and layout", `{"jobs":[{"design":"fft_a_md2","layout":"x"}]}`, "mutually exclusive"},
		{"unknown design", `{"jobs":[{"design":"nope"}]}`, "unknown design"},
		{"unknown engine", `{"jobs":[{"design":"fft_a_md2","engine":"turbo"}]}`, "unknown engine"},
		{"bad layout text", `{"jobs":[{"layout":"not flexpl at all"}]}`, "invalid flexpl"},
		// Scale is mandatory and bounded for design refs: an omitted scale
		// must not silently become the paper-size default.
		{"missing scale", `{"jobs":[{"design":"fft_a_md2"}]}`, "scale must be positive"},
		{"negative scale", `{"jobs":[{"design":"fft_a_md2","scale":-1}]}`, "scale must be positive"},
		{"scale over server limit", `{"jobs":[{"design":"fft_a_md2","scale":1.0}]}`, "exceeds the server's limit"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if decErr := json.NewDecoder(resp.Body).Decode(&eb); decErr != nil {
			t.Fatalf("%s: error body: %v", c.name, decErr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%+v)", c.name, resp.StatusCode, eb)
		}
		if !strings.Contains(eb.Error, c.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", c.name, eb.Error, c.wantSub)
		}
	}
}

func TestLegalizeShardedJob(t *testing.T) {
	ts := newTestServer(t)
	req := `{"jobs":[{"design":"fft_a_md2","scale":0.008,"engine":"flex","shards":2,"halo":2,"tag":"sh"}]}`
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	if len(results) != 1 || sum.Errors != 0 {
		t.Fatalf("results %+v summary %+v", results, sum)
	}
	r := results[0]
	if r.Shards != 2 {
		t.Fatalf("shards = %d, want 2: %+v", r.Shards, r)
	}
	if r.Legal == nil || !*r.Legal || r.Movable <= 0 {
		t.Fatalf("bad sharded result %+v", r)
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ShardedJobs != 1 {
		t.Fatalf("shardedJobs = %d, want 1", st.ShardedJobs)
	}
	if st.RetryAfterSeconds < 1 {
		t.Fatalf("retryAfterSeconds = %d, want >= 1", st.RetryAfterSeconds)
	}
}

// TestShardKnobValidation: shard counts outside [0, max-shards] are 400s,
// on both the JSON and raw-payload paths.
func TestShardKnobValidation(t *testing.T) {
	ts := newTestServer(t) // max-shards 8
	for _, c := range []struct{ name, body, wantSub string }{
		{"negative shards", `{"jobs":[{"design":"fft_a_md2","scale":0.008,"shards":-1}]}`, "shards must be in"},
		{"too many shards", `{"jobs":[{"design":"fft_a_md2","scale":0.008,"shards":9}]}`, "shards must be in"},
		{"negative halo", `{"jobs":[{"design":"fft_a_md2","scale":0.008,"halo":-1}]}`, "halo must be"},
	} {
		resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if decErr := json.NewDecoder(resp.Body).Decode(&eb); decErr != nil {
			t.Fatal(decErr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, c.wantSub) {
			t.Fatalf("%s: status %d error %q", c.name, resp.StatusCode, eb.Error)
		}
	}
	layout, err := flex.GenerateCustom(200, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := flex.WriteLayout(&sb, layout); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/legalize?engine=mgl&shards=99", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw payload with shards=99: status %d, want 400", resp.StatusCode)
	}
	ok, err := http.Post(ts.URL+"/v1/legalize?engine=mgl&shards=2", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("raw payload with shards=2: status %d", ok.StatusCode)
	}
	results, _ := decodeNDJSON(t, bufio.NewScanner(ok.Body))
	if len(results) != 1 || results[0].Shards != 2 {
		t.Fatalf("raw sharded result %+v", results)
	}
}

func TestLegalizeOverloadReturns429(t *testing.T) {
	// Queue depth 1: a 2-job batch can never be admitted.
	ts := newTestServer(t, flex.WithWorkers(1), flex.WithQueueDepth(1))
	req := `{"jobs":[{"design":"fft_a_md2","scale":0.008},{"design":"fft_a_md2","scale":0.008}]}`
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// Retry-After derives from current queue occupancy: an integer number
	// of seconds, at least 1 even on an idle queue.
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "overloaded") {
		t.Fatalf("error %q", eb.Error)
	}

	// A fitting request still succeeds, and the rejection is counted.
	ok, err := http.Post(ts.URL+"/v1/legalize", "application/json",
		strings.NewReader(`{"jobs":[{"design":"fft_a_md2","scale":0.008}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("fitting request status %d", ok.StatusCode)
	}
	decodeNDJSON(t, bufio.NewScanner(ok.Body))
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Overloaded != 1 || st.Jobs != 1 {
		t.Fatalf("stats %+v, want 1 overloaded / 1 job", st)
	}
}

func TestLegalizeOversizedBodyReturns413(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1))
	ts := httptest.NewServer(newServer(svc, nil, 1024, 0.05, 8)) // 1 KiB body limit
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	body := `{"jobs":[{"layout":"` + strings.Repeat("x", 4096) + `"}]}`
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "limit") {
		t.Fatalf("error %q does not name the size limit", eb.Error)
	}
}

// TestHealthzDrainingReturns503: drain() must flip the liveness probe to
// 503 "draining" while the listener is still up — a probe during graceful
// shutdown sees draining, not a 200 that turns into connection-refused.
func TestHealthzDrainingReturns503(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1))
	app := newServer(svc, nil, 8<<20, 0.05, 8)
	ts := httptest.NewServer(app)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	app.drain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "draining" {
		t.Fatalf("body %v, want status draining", body)
	}
}

// TestWorkerModeServesFleetProtocol: a worker-mode server mounts the fleet
// surface next to the normal API, and drain() propagates onto it so a
// coordinator's health probe sees 503.
func TestWorkerModeServesFleetProtocol(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithCacheBytes(32<<20))
	fw := flex.NewFleetWorker(svc)
	app := newServer(svc, fw, 8<<20, 0.05, 8)
	ts := httptest.NewServer(app)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	// The fleet health endpoint and the normal API both answer.
	resp, err := http.Get(ts.URL + "/w/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/w/v1/health status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	// A fleet job executes through the service's normal path.
	job := `{"design":"fft_a_md2","scale":0.008,"engine":"flex"}`
	resp, err = http.Post(ts.URL+"/w/v1/job", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Layout string `json:"layout"`
		Legal  bool   `json:"legal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !res.Legal || res.Layout == "" {
		t.Fatalf("fleet job: status %d result %+v", resp.StatusCode, res)
	}

	// drain() reaches the fleet surface too.
	app.drain()
	for _, path := range []string{"/healthz", "/w/v1/health"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s after drain: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestStatsFleetBlock: a coordinator's /v1/stats carries the fleet block —
// per-node liveness and the routing totals — after jobs executed remotely;
// a single-process server omits it.
func TestStatsFleetBlock(t *testing.T) {
	wsvc := flex.NewService(flex.WithWorkers(2), flex.WithCacheBytes(32<<20))
	worker := httptest.NewServer(newServer(wsvc, flex.NewFleetWorker(wsvc), 8<<20, 0.05, 8))
	t.Cleanup(func() {
		worker.Close()
		wsvc.Close()
	})

	ts := newTestServer(t, flex.WithWorkers(2), flex.WithCacheBytes(32<<20),
		flex.WithWorkersList(worker.URL))
	req := `{"jobs":[{"design":"fft_a_md2","scale":0.008,"engine":"flex","shards":2}]}`
	resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	if len(results) != 1 || sum.Errors != 0 || results[0].Legal == nil || !*results[0].Legal {
		t.Fatalf("results %+v summary %+v", results, sum)
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fleet == nil {
		t.Fatal("coordinator stats missing fleet block")
	}
	if st.Fleet.Routed < 2 { // both bands went remote
		t.Fatalf("fleet.routed = %d, want >= 2", st.Fleet.Routed)
	}
	if st.Fleet.RemoteWallMs <= 0 {
		t.Fatalf("fleet.remoteWallMs = %g, want > 0", st.Fleet.RemoteWallMs)
	}
	if len(st.Fleet.Nodes) != 1 || st.Fleet.Nodes[0].Addr != worker.URL ||
		st.Fleet.Nodes[0].State != "alive" || st.Fleet.Nodes[0].Routed < 2 {
		t.Fatalf("fleet nodes %+v", st.Fleet.Nodes)
	}

	// A single-process server's stats omit the block entirely.
	single := newTestServer(t)
	sresp, err := http.Get(single.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sst statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sst); err != nil {
		t.Fatal(err)
	}
	if sst.Fleet != nil {
		t.Fatalf("single-process stats carry a fleet block: %+v", sst.Fleet)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/legalize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/legalize status %d, want 405", resp.StatusCode)
	}
}
