package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {110, 0.9, 11}, {10, 0.5, 5}, {1, 0.9, 0}, {0, 0.9, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if got := highestSupported(100, 0.5, 0.9, 0.99); got != 0.9 {
		t.Errorf("100 samples support p%v, want p90", got*100)
	}
	if got := highestSupported(99, 0.5, 0.9); got != 0.5 {
		t.Errorf("99 samples support p%v, want p50 (p90 has 9 beyond)", got*100)
	}
	if got := highestSupported(1000, 0.5, 0.9, 0.99); got != 0.99 {
		t.Errorf("1000 samples support p%v, want p99", got*100)
	}
	if got := highestSupported(15, 0.5, 0.9); got != 0 {
		t.Errorf("15 samples support p%v, want none", got*100)
	}
	if quantile(nil, 0.5) != 0 || median([]float64{3, 1, 2}) != 2 {
		t.Error("quantile edge cases")
	}
}

func TestReadRowsExtractsFieldsAndStopsAtDone(t *testing.T) {
	stream := `{"index":1,"engine":"MGL","legal":true,"movable":500,"aveDis":0.5,"maxDis":3,"modeledSeconds":0.02,"wallMs":12.5}
{"index":0,"engine":"FLEX","legal":false,"violations":2,"aveDis":0.25,"wallMs":40,"schedWaitMs":1.5,"deviceWaitMs":2,"deviceHoldMs":30,"shards":8,"layoutHash":"ab12","trace":"00ff"}
{"done":true,"jobs":2,"errors":0,"skipped":0,"modeledSeconds":0.05,"wallMs":41}
`
	rows, done, err := readRows(strings.NewReader(stream))
	if err != nil || !done || len(rows) != 2 {
		t.Fatalf("rows=%d done=%v err=%v, want 2 rows and done", len(rows), done, err)
	}
	r := rows[1]
	if r.Index != 0 || *r.Legal || r.Violations != 2 || r.AveDis != 0.25 || r.WallMs != 40 ||
		r.SchedWaitMs != 1.5 || r.DeviceWaitMs != 2 || r.DeviceHoldMs != 30 || r.Shards != 8 || r.LayoutHash != "ab12" {
		t.Errorf("row fields not extracted: %+v", r)
	}
	if rows[0].Movable != 500 || rows[0].ModeledSeconds != 0.02 || rows[0].MaxDis != 3 {
		t.Errorf("row fields not extracted: %+v", rows[0])
	}

	resp := response{req: &request{jobs: 2}, status: 200, rows: rows, done: true}
	if f := resp.failure(); f != "" {
		t.Errorf("complete response failed: %s", f)
	}
	if resp.maxWallMs() != 40 {
		t.Errorf("maxWallMs = %v, want 40", resp.maxWallMs())
	}
	resp.rows[0].Error = "boom"
	if resp.failure() == "" {
		t.Error("an error row must fail the response")
	}

	if _, done, _ := readRows(strings.NewReader(`{"index":0,"legal":true}` + "\n")); done {
		t.Error("a stream without a done line must not read as done")
	}
	if _, _, err := readRows(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed NDJSON must error")
	}
}

func TestStatsDelta(t *testing.T) {
	var before, after []snapshot
	for _, body := range []string{
		`{"deviceAcquires":10,"deviceContended":4,"incremental":3,"fallbacks":1,"outcomeHits":2,"outcomeMisses":5}`,
		`{"deviceAcquires":30,"deviceContended":14,"incremental":13,"fallbacks":1,"outcomeHits":7,"outcomeMisses":10}`,
	} {
		var s snapshot
		if err := json.Unmarshal([]byte(body), &s.stats); err != nil {
			t.Fatal(err)
		}
		if before == nil {
			before = append(before, s)
		} else {
			after = append(after, s)
		}
	}
	fleetBefore := `{"fleet":{"nodes":[{"addr":"a","state":"alive","routed":5},{"addr":"b","state":"alive","routed":7}],"routed":12,"retried":1,"excluded":1}}`
	fleetAfter := `{"fleet":{"nodes":[{"addr":"a","state":"alive","routed":25},{"addr":"b","state":"alive","routed":17}],"routed":42,"retried":3,"excluded":2}}`
	var fb, fa snapshot
	if err := json.Unmarshal([]byte(fleetBefore), &fb.stats); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(fleetAfter), &fa.stats); err != nil {
		t.Fatal(err)
	}
	before, after = append(before, fb), append(after, fa)

	c := statsDelta(before, after)
	if c.acquires != 20 || c.contended != 10 || c.incremental != 10 || c.fallbacks != 0 || c.hits != 5 || c.misses != 5 {
		t.Errorf("stats deltas wrong: %+v", c)
	}
	if c.retried != 2 || c.excluded != 1 || len(c.routed) != 2 || c.routed[0] != 20 || c.routed[1] != 10 {
		t.Errorf("fleet deltas wrong: %+v", c)
	}
}

func TestHistogramDeltaQuantile(t *testing.T) {
	before := `# TYPE flex_fleet_rpc_seconds histogram
flex_fleet_rpc_seconds_bucket{node="http://a",le="0.01"} 1
flex_fleet_rpc_seconds_bucket{node="http://a",le="0.1"} 2
flex_fleet_rpc_seconds_bucket{node="http://a",le="+Inf"} 2
flex_fleet_rpc_seconds_sum{node="http://a"} 0.1
flex_fleet_rpc_seconds_count{node="http://a"} 2
flex_other_seconds_bucket{le="0.1"} 99
`
	after := `flex_fleet_rpc_seconds_bucket{node="http://a",le="0.01"} 1
flex_fleet_rpc_seconds_bucket{node="http://a",le="0.1"} 12
flex_fleet_rpc_seconds_bucket{node="http://a",le="+Inf"} 12
flex_fleet_rpc_seconds_bucket{node="http://b",le="0.01"} 0
flex_fleet_rpc_seconds_bucket{node="http://b",le="0.1"} 10
flex_fleet_rpc_seconds_bucket{node="http://b",le="+Inf"} 10
`
	d := parseHistogram(after, "flex_fleet_rpc_seconds").sub(parseHistogram(before, "flex_fleet_rpc_seconds"))
	if d[0.01] != 0 || d[0.1] != 20 || d[math.Inf(1)] != 20 {
		t.Fatalf("delta buckets = %v", d)
	}
	// All 20 observations fall in (0.01, 0.1]: the median interpolates to
	// the bucket's midpoint.
	if got := d.quantile(0.5); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("p50 = %v, want 0.055", got)
	}
	if got := (histogram{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	line := []byte("4242 (flex serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 0 0\n")
	got, err := parseStatCPU(line)
	if err != nil || got != 3*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("malformed stat line must error")
	}
}

func TestLayerBucketing(t *testing.T) {
	m := modulePath
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{m + "/internal/fop.(*pe).run"}, "fop"},
		{[]string{m + "/internal/curve.Merge", m + "/internal/fop.Solve"}, "fop"},
		{[]string{m + "/internal/order.Window"}, "order"},
		{[]string{m + "/internal/region.Extract"}, "region"},
		{[]string{m + "/internal/shift.Apply"}, "shift"},
		{[]string{m + "/internal/abacus.Place"}, "abacus"},
		{[]string{"crypto/internal/fips140/sha256.blockAMD64", "crypto/sha256.(*Digest).Write", m + "/internal/eco.Hash"}, "eco"},
		{[]string{"crypto/sha256.block"}, "eco"},
		{[]string{m + "/internal/eco.Apply"}, "eco"},
		{[]string{"net/http.(*conn).serve"}, "flexserve"},
		{[]string{"encoding/json.(*encodeState).marshal", "main.(*server).handleLegalize"}, "flexserve"},
		{[]string{"main.(*server).handleLegalize"}, "flexserve"},
		{[]string{m + "/cmd/flexserve.(*server).parseJobs"}, "flexserve"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", m + "/internal/fop.Solve"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", m + "/internal/model.(*Layout).Clone"}, "model"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"slices.pdqsortCmpFunc[...]", "slices.SortFunc[...]", m + "/internal/order.Sort"}, "order"},
		{[]string{"sort.insertionSort", "sort.Sort"}, "other"},
		{[]string{m + ".LegalizeWith"}, "flex"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	shares := cpuShares([]sample{
		{stack: []string{m + "/internal/fop.Solve"}, cpuNs: 30},
		{stack: []string{"runtime.mallocgc"}, cpuNs: 10},
	})
	if shares["fop"] != 0.75 || shares["gc"] != 0.25 {
		t.Errorf("cpuShares = %v, want fop 0.75, gc 0.25", shares)
	}

	// Inclusive shares count a sample wherever the function sits in its
	// stack, leaf or caller.
	check := modelFuncs["check"]
	withCheck := []sample{
		{stack: []string{"runtime.mapaccess1", check, m + ".Check"}, cpuNs: 20},
		{stack: []string{check}, cpuNs: 10},
		{stack: []string{m + "/internal/model.Measure", m + ".Measure"}, cpuNs: 30},
		{stack: []string{m + "/internal/fop.Solve"}, cpuNs: 40},
	}
	if got := inclusiveShare(withCheck, check); got != 0.3 {
		t.Errorf("check share = %v, want 0.3", got)
	}
	if got := inclusiveShare(withCheck, modelFuncs["measure"]); got != 0.3 {
		t.Errorf("measure share = %v, want 0.3", got)
	}
	if got := inclusiveShare(withCheck, modelFuncs["clone"]); got != 0 {
		t.Errorf("clone share = %v, want 0", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseProfileReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.cpuNs
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if len(samples) == 0 || total <= 0 || !found {
		t.Errorf("decoded %d samples, %dns, spin seen: %v", len(samples), total, found)
	}
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced, against a freshly built flexserve, and checks that every metric
// BENCHMARK.json names prints with its unit and the run verifies clean.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds flexserve and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "flexserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/flexserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build flexserve: %v\n%s", err, out)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				o := options{workload: w.Name, seed: 7, seconds: 1, trace: trace == 1, bin: bin, size: 0.25}
				var out bytes.Buffer
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				res, err := run(ctx, o, &out)
				cancel()
				if err != nil {
					t.Fatalf("trace=%d: %v\n%s", trace, err, out.String())
				}
				if !res.correct || res.failed > 0 || res.attempted == 0 {
					t.Errorf("trace=%d: correct=%v failed=%d attempted=%d", trace, res.correct, res.failed, res.attempted)
				}
				final := res.final()
				if len(final.Metrics) != len(want) {
					t.Errorf("trace=%d: JSON carries %d metrics, BENCHMARK.json lists %d", trace, len(final.Metrics), len(want))
				}
				for _, m := range want {
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("trace=%d: metric %s not printed", trace, m.Name)
					}
					if got, ok := final.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace=%d: metric %s = %+v, want unit %q", trace, m.Name, got, m.Unit)
					}
				}
				if trace == 0 {
					for _, m := range want {
						if final.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, final.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames() {
		digest := func(seed int64) string {
			st, err := workloads[name].newStream(options{workload: name, seed: seed, size: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			st.pregen(6)
			d, _ := st.digest()
			return d
		}
		if a, b := digest(5), digest(5); a != b {
			t.Errorf("%s: seed 5 gave two request streams (%s, %s)", name, a, b)
		}
		if digest(5) == digest(6) {
			t.Errorf("%s: seeds 5 and 6 gave the same request stream", name)
		}
	}

	// An eco repeat re-sends an earlier request of its own client verbatim.
	st, err := newEcoStream(options{seed: 5, size: 0.1}, 2, "edit_dist_a_md2", 10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for seq := 0; seq < 40; seq++ {
		r := st.next(1, seq)
		if r.kind != "repeat" {
			continue
		}
		repeats++
		found := false
		for k := max(seq-repeatWindow, 0); k < seq; k++ {
			if st.next(1, k).key == r.key {
				found = true
			}
		}
		if !found {
			t.Errorf("repeat at seq %d matches none of the client's last %d requests", seq, repeatWindow)
		}
	}
	if repeats < 4 || repeats > 20 {
		t.Errorf("%d repeats in 40 requests, want about one in four", repeats)
	}
}
