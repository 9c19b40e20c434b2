package flex_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/fleet"
)

// workerProxy fronts one fleet worker for tests: it counts job requests,
// records the wire jobs it forwards, and can abort exactly one request
// mid-flight (the connection dies with no response — a worker killed
// mid-band, as the coordinator sees it).
type workerProxy struct {
	handler  http.Handler
	jobs     atomic.Int64
	killNext atomic.Bool

	mu       sync.Mutex
	recorded []fleet.Job
}

func (p *workerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/w/v1/job" {
		if p.killNext.CompareAndSwap(true, false) {
			panic(http.ErrAbortHandler)
		}
		p.jobs.Add(1)
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var j fleet.Job
			if json.Unmarshal(body, &j) == nil {
				p.mu.Lock()
				p.recorded = append(p.recorded, j)
				p.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	p.handler.ServeHTTP(w, r)
}

// startWorker boots one real fleet worker — a full Service behind the
// wire protocol — wrapped in a recording proxy.
func startWorker(t *testing.T) (*httptest.Server, *workerProxy, *flex.Service) {
	t.Helper()
	svc := flex.NewService(flex.WithWorkers(2), flex.WithCacheBytes(64<<20))
	t.Cleanup(func() { svc.Close() })
	p := &workerProxy{handler: flex.NewFleetWorker(svc).Handler()}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return srv, p, svc
}

// requireSameOutcome asserts two results carry byte-identical outcomes:
// layout bytes, legality, metrics, violations, modeled seconds. Telemetry
// (wall, waits) is allowed to differ — that is the contract.
func requireSameOutcome(t *testing.T, label string, local, remote flex.BatchResult) {
	t.Helper()
	if local.Err != nil || remote.Err != nil {
		t.Fatalf("%s: errs local=%v remote=%v", label, local.Err, remote.Err)
	}
	lo, ro := local.Outcome, remote.Outcome
	if lb, rb := encodeLayout(t, lo.Layout), encodeLayout(t, ro.Layout); !bytes.Equal(lb, rb) {
		t.Fatalf("%s: layouts differ (%d vs %d bytes)", label, len(lb), len(rb))
	}
	if lo.Legal != ro.Legal || lo.ModeledSeconds != ro.ModeledSeconds || lo.Engine != ro.Engine {
		t.Fatalf("%s: legal/modeled/engine differ: %v/%v/%v vs %v/%v/%v",
			label, lo.Legal, lo.ModeledSeconds, lo.Engine, ro.Legal, ro.ModeledSeconds, ro.Engine)
	}
	if lo.Metrics != ro.Metrics {
		t.Fatalf("%s: metrics differ: %+v vs %+v", label, lo.Metrics, ro.Metrics)
	}
	if !reflect.DeepEqual(lo.Violations, ro.Violations) {
		t.Fatalf("%s: violations differ: %v vs %v", label, lo.Violations, ro.Violations)
	}
}

// TestFleetByteIdentity runs one mixed batch — a sharded FLEX job, a plain
// design reference, and an explicit layout — through a coordinator with
// two workers and through a single-process service, and requires
// byte-identical outcomes. It also checks the scheduling class propagated
// onto the wire.
func TestFleetByteIdentity(t *testing.T) {
	srvA, proxyA, _ := startWorker(t)
	srvB, proxyB, _ := startWorker(t)

	coord := flex.NewService(
		flex.WithWorkers(4), flex.WithCacheBytes(64<<20),
		flex.WithWorkersList(srvA.URL, srvB.URL))
	defer coord.Close()
	single := flex.NewService(flex.WithWorkers(4), flex.WithCacheBytes(64<<20))
	defer single.Close()

	explicit, err := flex.Generate("pci_b_a_md1", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.02, Engine: flex.EngineFLEX, Shards: 3, Priority: 5, Client: "tenant-x"},
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineMGL, Client: "tenant-y"},
		{Layout: explicit, Engine: flex.EngineFLEX, Tag: "explicit"},
	}

	remote, err := coord.Submit(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("coordinator submit: %v", err)
	}
	local, err := single.Submit(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("single submit: %v", err)
	}
	for i := range jobs {
		requireSameOutcome(t, fmt.Sprintf("job %d", i), local.Results[i], remote.Results[i])
	}
	if got := len(remote.Results[0].Shards); got != 3 {
		t.Fatalf("sharded job bands = %d, want 3", got)
	}
	if remote.ModeledSeconds != local.ModeledSeconds {
		t.Fatalf("summary modeled seconds differ: %v vs %v", remote.ModeledSeconds, local.ModeledSeconds)
	}

	// Every job ran remotely: 3 bands + 2 plain jobs across the two nodes.
	if total := proxyA.jobs.Load() + proxyB.jobs.Load(); total != 5 {
		t.Fatalf("workers served %d jobs, want 5", total)
	}
	st := coord.Stats()
	if st.Fleet == nil || st.Fleet.Routed != 5 || len(st.Fleet.Nodes) != 2 {
		t.Fatalf("fleet stats = %+v", st.Fleet)
	}
	if st.Fleet.RemoteWall <= 0 {
		t.Error("fleet RemoteWall not accumulated")
	}

	// The scheduling class rode the wire end to end.
	var sawShard, sawPlain bool
	for _, p := range []*workerProxy{proxyA, proxyB} {
		p.mu.Lock()
		for _, j := range p.recorded {
			if j.Layout != "" && j.Priority == 5 && j.Client == "tenant-x" && j.Engine == "flex" {
				sawShard = true
			}
			if j.Design == "fft_a_md2" && j.Client == "tenant-y" && j.Engine == "mgl" {
				sawPlain = true
			}
		}
		p.mu.Unlock()
	}
	if !sawShard || !sawPlain {
		t.Fatalf("scheduling class not propagated: sawShard=%v sawPlain=%v", sawShard, sawPlain)
	}

	// A coordinator rejects an unknown design with the single-process
	// error, locally, before any routing.
	bad := []flex.BatchJob{{Design: "nope", Scale: 0.01}}
	rsum, _ := coord.Submit(context.Background(), bad, flex.SubmitOptions{})
	lsum, _ := single.Submit(context.Background(), bad, flex.SubmitOptions{})
	if rsum.Results[0].Err == nil || lsum.Results[0].Err == nil ||
		rsum.Results[0].Err.Error() != lsum.Results[0].Err.Error() {
		t.Fatalf("unknown-design errors differ: %v vs %v", rsum.Results[0].Err, lsum.Results[0].Err)
	}
}

// TestFleetWorkerKilledMidBand kills a worker mid-band — the connection
// aborts with no response — and requires the coordinator to retry the band
// on the surviving worker with the dead node excluded, stitching a layout
// byte-identical to the single-node run.
func TestFleetWorkerKilledMidBand(t *testing.T) {
	srvA, proxyA, _ := startWorker(t)
	srvB, proxyB, _ := startWorker(t)

	coord := flex.NewService(
		flex.WithWorkers(4), flex.WithCacheBytes(64<<20),
		flex.WithWorkersList(srvA.URL, srvB.URL))
	defer coord.Close()

	// httptest ports vary, so ring ownership varies per run: probe for a
	// sharded job with at least one band on each worker, varying the scale
	// (every band key moves with it) until both nodes serve.
	var job flex.BatchJob
	for i := 0; i < 12; i++ {
		cand := flex.BatchJob{
			Design: "fft_a_md2", Scale: 0.010 + 0.002*float64(i),
			Engine: flex.EngineFLEX, Shards: 4,
		}
		beforeA, beforeB := proxyA.jobs.Load(), proxyB.jobs.Load()
		sum, err := coord.Submit(context.Background(), []flex.BatchJob{cand}, flex.SubmitOptions{})
		if err != nil || sum.Results[0].Err != nil {
			t.Fatalf("probe submit: %v / %v", err, sum.Results[0].Err)
		}
		if proxyA.jobs.Load() > beforeA && proxyB.jobs.Load() > beforeB {
			job = cand
			break
		}
	}
	if job.Design == "" {
		t.Fatal("no probe scale spread bands across both workers")
	}

	// Arm worker A to die on its next band, then resubmit the same job:
	// its bands route identically, one dies mid-flight, and the retry must
	// land on B and stitch the same bytes.
	proxyA.killNext.Store(true)
	remote, err := coord.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit with killed worker: %v", err)
	}

	single := flex.NewService(flex.WithWorkers(4), flex.WithCacheBytes(64<<20))
	defer single.Close()
	local, err := single.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, "killed-worker run", local.Results[0], remote.Results[0])
	if !remote.Results[0].Outcome.Legal {
		t.Fatal("stitched result not legal")
	}

	st := coord.Stats()
	if st.Fleet.Retried < 1 || st.Fleet.Excluded < 1 {
		t.Fatalf("retry-with-exclusion not exercised: %+v", st.Fleet)
	}
	var failedA int64
	for _, n := range st.Fleet.Nodes {
		if n.Addr == srvA.URL {
			failedA = n.Failed
		}
	}
	if failedA < 1 {
		t.Fatalf("killed node records no failure: %+v", st.Fleet.Nodes)
	}
}

// blockingExec is a fleet Executor that holds every job until its context
// deadline — the shape of a band stuck behind a worker's backlog.
type blockingExec struct{ got chan fleet.Job }

func (b *blockingExec) Execute(ctx context.Context, job fleet.Job) (*fleet.Result, error) {
	select {
	case b.got <- job:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}
func (b *blockingExec) Load() fleet.Load { return fleet.Load{Workers: 1} }

// TestFleetDeadlineMidFlightTyped is the satellite regression: a deadline
// expiring mid-flight on a worker must surface as flex.ErrDeadlineExceeded
// at the coordinator — a typed scheduling failure, not a transport error —
// and must not be retried onto other workers.
func TestFleetDeadlineMidFlightTyped(t *testing.T) {
	exec := &blockingExec{got: make(chan fleet.Job, 1)}
	srv := httptest.NewServer(fleet.NewWorker(exec, nil).Handler())
	defer srv.Close()

	coord := flex.NewService(flex.WithWorkers(2), flex.WithWorkersList(srv.URL))
	defer coord.Close()

	job := flex.BatchJob{
		Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX,
		Priority: 7, Client: "acme",
		Deadline: time.Now().Add(150 * time.Millisecond), //flexvet:walltime test fixture deadline
	}
	sum, err := coord.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got := sum.Results[0].Err
	if !errors.Is(got, flex.ErrDeadlineExceeded) {
		t.Fatalf("mid-flight deadline err = %v, want flex.ErrDeadlineExceeded", got)
	}

	// The scheduling class crossed the wire before the job stalled.
	select {
	case wire := <-exec.got:
		if wire.Priority != 7 || wire.Client != "acme" || wire.Engine != "flex" {
			t.Fatalf("wire class = %+v", wire)
		}
		if wire.DeadlineMs <= 0 || wire.DeadlineMs > 150 {
			t.Fatalf("wire DeadlineMs = %d, want (0, 150]", wire.DeadlineMs)
		}
	default:
		t.Fatal("worker never received the job")
	}
}

// TestFleetDrainingWorkerExcluded routes around a worker whose service has
// begun draining: the 503 is retryable and the surviving node serves.
func TestFleetDrainingWorkerExcluded(t *testing.T) {
	svcA := flex.NewService(flex.WithWorkers(1))
	defer svcA.Close()
	fwA := flex.NewFleetWorker(svcA)
	srvA := httptest.NewServer(fwA.Handler())
	defer srvA.Close()
	srvB, proxyB, _ := startWorker(t)

	coord := flex.NewService(flex.WithWorkers(2),
		flex.WithWorkersList(srvA.URL, srvB.URL))
	defer coord.Close()

	fwA.Drain()
	sum, err := coord.Submit(context.Background(),
		[]flex.BatchJob{{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineMGL}},
		flex.SubmitOptions{})
	if err != nil || sum.Results[0].Err != nil {
		t.Fatalf("submit with draining worker: %v / %v", err, sum.Results[0].Err)
	}
	if proxyB.jobs.Load() != 1 {
		t.Fatalf("survivor served %d jobs, want 1", proxyB.jobs.Load())
	}
}

// TestFleetWorkerLogsToServiceLogger: a worker built on a service with
// WithLogger logs its drain transition to that logger, not slog.Default.
func TestFleetWorkerLogsToServiceLogger(t *testing.T) {
	var logs logBuffer
	svc := flex.NewService(flex.WithWorkers(1),
		flex.WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	defer svc.Close()
	flex.NewFleetWorker(svc).Drain()
	if got := logs.take(); !strings.Contains(got, "level=WARN") || !strings.Contains(got, "worker draining") {
		t.Fatalf("service logger got %q, want the worker's drain warning", got)
	}
}

// lyingExec is a faulty fleet worker: it echoes every job's layout back
// unlegalized and claims the result legal.
type lyingExec struct{}

func (lyingExec) Execute(_ context.Context, j fleet.Job) (*fleet.Result, error) {
	return &fleet.Result{Layout: j.Layout, Legal: true, ModeledSeconds: 1}, nil
}
func (lyingExec) Load() fleet.Load { return fleet.Load{Workers: 1} }

// TestFleetLyingWorkerNeverLegal: a worker's legal verdict counts only when
// the returned layout checks clean at the coordinator, so an unlegalized
// echo surfaces as illegal with its violations — for an unsharded job's
// outcome, and for a sharded job's stitched outcome and every band in
// Shards.
func TestFleetLyingWorkerNeverLegal(t *testing.T) {
	srv := httptest.NewServer(fleet.NewWorker(lyingExec{}, nil).Handler())
	defer srv.Close()
	coord := flex.NewService(flex.WithWorkers(2), flex.WithWorkersList(srv.URL))
	defer coord.Close()

	l, err := flex.GenerateCustom(400, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := coord.Submit(context.Background(),
		[]flex.BatchJob{{Layout: l}, {Layout: l, Shards: 3}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireNotLegal := func(label string, out *flex.Outcome) {
		t.Helper()
		if out.Legal && len(out.Violations) > 0 {
			t.Fatalf("%s: Legal=true beside %d violations", label, len(out.Violations))
		}
	}
	for i, r := range sum.Results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if len(r.Outcome.Violations) == 0 {
			t.Fatalf("job %d: an unlegalized echo checked clean; the test exercises nothing", i)
		}
		requireNotLegal(fmt.Sprintf("job %d", i), r.Outcome)
		for _, sr := range r.Shards {
			requireNotLegal(fmt.Sprintf("job %d band %d", i, sr.Index), sr.Outcome)
		}
	}
	if got := len(sum.Results[1].Shards); got != 3 {
		t.Fatalf("sharded job has %d bands, want 3", got)
	}
}
