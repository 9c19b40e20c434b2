package flex_test

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// walkSpans visits every span in a tree, depth-first.
func walkSpans(spans []*flex.TraceSpan, f func(*flex.TraceSpan)) {
	for _, sp := range spans {
		f(sp)
		walkSpans(sp.Spans, f)
	}
}

// TestSubmitTracingLocalSpans asserts a traced single-process job yields a
// trace ID and a span tree with the scheduling and execution phases.
func TestSubmitTracingLocalSpans(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1), flex.WithTracing(true))
	defer svc.Close()
	sum, err := svc.Submit(context.Background(),
		[]flex.BatchJob{{Design: "fft_a_md2", Scale: 0.02, Tag: "local"}},
		flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	r := sum.Results[0]
	if r.Err != nil {
		t.Fatalf("job failed: %v", r.Err)
	}
	if !traceIDRe.MatchString(r.TraceID) {
		t.Fatalf("trace ID %q, want 16 hex digits", r.TraceID)
	}
	seen := map[string]bool{}
	walkSpans(r.Spans, func(sp *flex.TraceSpan) { seen[sp.Name] = true })
	for _, want := range []string{"admit", "sched-wait", "legalize", "device-hold"} {
		if !seen[want] {
			t.Fatalf("span %q missing from local trace; saw %v", want, seen)
		}
	}
}

// TestTracingByteIdentity is the hard invariant behind the whole
// observability layer: the same job with tracing on and off produces
// byte-identical layouts and identical modeled seconds — only the
// telemetry fields differ.
func TestTracingByteIdentity(t *testing.T) {
	run := func(traceOn bool) flex.BatchResult {
		t.Helper()
		svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1),
			flex.WithTracing(traceOn))
		defer svc.Close()
		sum, err := svc.Submit(context.Background(),
			[]flex.BatchJob{{Design: "fft_a_md2", Scale: 0.02, Shards: 4}},
			flex.SubmitOptions{})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return sum.Results[0]
	}
	on, off := run(true), run(false)
	requireSameOutcome(t, "tracing on vs off", on, off)
	if off.TraceID != "" || off.Spans != nil {
		t.Fatalf("tracing off but result carries trace %q / %d spans", off.TraceID, len(off.Spans))
	}
	if on.TraceID == "" || len(on.Spans) == 0 {
		t.Fatalf("tracing on but result carries no trace")
	}
}

// TestFleetShardedJobTraceTree is the fleet acceptance check: a sharded
// job on a two-worker coordinator must produce ONE trace tree in which
// every band span carries its fleet RPC and the grafted worker-side
// subtree, with bands covering both workers. Band→worker assignment is
// consistent hashing on the band cache key, so the test probes a few
// scales until the split covers both nodes (each scale re-rolls every
// band's key; a single scale landing all bands on one node is already
// unlikely).
func TestFleetShardedJobTraceTree(t *testing.T) {
	srvA, _, _ := startWorker(t)
	srvB, _, _ := startWorker(t)
	wantNodes := map[string]bool{
		strings.TrimRight(srvA.URL, "/"): true,
		strings.TrimRight(srvB.URL, "/"): true,
	}
	for _, scale := range []float64{0.02, 0.021, 0.022, 0.023, 0.024, 0.025, 0.026, 0.027} {
		coord := flex.NewService(flex.WithWorkers(4), flex.WithCacheBytes(64<<20),
			flex.WithWorkersList(srvA.URL, srvB.URL), flex.WithTracing(true))
		sum, err := coord.Submit(context.Background(),
			[]flex.BatchJob{{Design: "fft_a_md2", Scale: scale, Shards: 6, Tag: "sharded"}},
			flex.SubmitOptions{})
		coord.Close()
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		r := sum.Results[0]
		if r.Err != nil {
			t.Fatalf("sharded fleet job failed: %v", r.Err)
		}
		if !traceIDRe.MatchString(r.TraceID) {
			t.Fatalf("trace ID %q, want 16 hex digits", r.TraceID)
		}

		var bands, stitches int
		nodes := map[string]bool{}
		walkSpans(r.Spans, func(sp *flex.TraceSpan) {
			if sp.Name == "stitch" {
				stitches++
			}
			if !strings.HasPrefix(sp.Name, "band ") {
				return
			}
			bands++
			// Each band executed remotely: its children must include the
			// RPC record and the worker's grafted subtree (the legalize
			// span the worker recorded on its side of the wire).
			var rpc, remote bool
			for _, child := range sp.Spans {
				switch child.Name {
				case "fleet-rpc":
					rpc = true
					nodes[strings.TrimRight(child.Detail, "/")] = true
				case "legalize":
					remote = true
				}
			}
			if !rpc {
				t.Fatalf("band span %q has no fleet-rpc child", sp.Name)
			}
			if !remote {
				t.Fatalf("band span %q has no grafted worker-side legalize span", sp.Name)
			}
		})
		if bands != 6 {
			t.Fatalf("got %d band spans, want 6", bands)
		}
		if stitches != 1 {
			t.Fatalf("got %d stitch spans, want 1", stitches)
		}
		for n := range nodes {
			if !wantNodes[n] {
				t.Fatalf("fleet-rpc span names unknown node %q (workers: %v)", n, wantNodes)
			}
		}
		if len(nodes) == len(wantNodes) {
			return // one tree, both workers covered
		}
	}
	t.Fatalf("no probed scale routed bands to both workers")
}

// TestTraceOutFromResults is the library side of flexlg -trace-out: on a
// WithTracing service, feeding each result's TraceID and Spans from
// OnResult into an obs.Tracer yields one trace per job — a sharded job, a
// job that fails, and a plain job — and valid Chrome trace JSON.
func TestTraceOutFromResults(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2), flex.WithTracing(true))
	defer svc.Close()
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 2, Tag: "sharded"},
		{Design: "no_such_design", Scale: 0.01, Engine: flex.EngineMGL, Tag: "unknown"},
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineMGL, Tag: "plain"},
	}
	tracer := obs.NewTracer()
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{
		OnResult: func(r flex.BatchResult) { tracer.Add(r.TraceID, r.Tag, r.Spans) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Results[1].Err == nil {
		t.Fatal("unknown design did not fail")
	}

	traces := map[string]*obs.Trace{}
	for _, tr := range tracer.Traces() {
		traces[tr.Name] = tr
	}
	if len(traces) != len(jobs) {
		t.Fatalf("collected %d distinct traces, want one per job (%d)", len(traces), len(jobs))
	}
	for _, r := range sum.Results {
		tr := traces[r.Tag]
		if tr == nil || !traceIDRe.MatchString(tr.ID) || tr.ID != r.TraceID {
			t.Fatalf("job %s: trace %+v does not carry the result's trace ID %q", r.Tag, tr, r.TraceID)
		}
	}
	seen := map[string]bool{}
	walkSpans(traces["sharded"].Spans, func(sp *flex.TraceSpan) { seen[sp.Name] = true })
	for _, want := range []string{"band 1/2", "band 2/2", "stitch"} {
		if !seen[want] {
			t.Fatalf("sharded trace lacks span %q; saw %v", want, seen)
		}
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	spansPerLane := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spansPerLane[ev.TID]++
		}
	}
	for tid := 1; tid <= len(jobs); tid++ {
		if spansPerLane[tid] == 0 {
			t.Fatalf("trace lane %d has no span events: %v", tid, spansPerLane)
		}
	}
}
