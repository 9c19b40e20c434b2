package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/sched"
)

// stubExec is a scriptable Executor for handler tests.
type stubExec struct {
	fn   func(ctx context.Context, job Job) (*Result, error)
	load Load
}

func (s *stubExec) Execute(ctx context.Context, job Job) (*Result, error) { return s.fn(ctx, job) }
func (s *stubExec) Load() Load                                            { return s.load }

func TestRingDeterministicPickAndExclusion(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r1 := newRing(nodes)
	r2 := newRing([]string{"http://c", "http://a", "http://b"})
	keys := []string{"fft_a_md2@0.0100", "pci_b_a_md2@0.0200|bands=4|halo=2#band=3", "superblue19@0.5000"}
	for _, k := range keys {
		owner := r1.pick(k, nil)
		if owner == "" {
			t.Fatalf("pick(%q) returned no node", k)
		}
		// Same node set in any order, same owner — and stable on re-ask.
		if got := r2.pick(k, nil); got != owner {
			t.Errorf("pick(%q) order-dependent: %q vs %q", k, owner, got)
		}
		if got := r1.pick(k, nil); got != owner {
			t.Errorf("pick(%q) unstable: %q then %q", k, owner, got)
		}
		// Excluding the owner moves to a deterministic survivor.
		alt := r1.pick(k, map[string]bool{owner: true})
		if alt == "" || alt == owner {
			t.Fatalf("pick(%q) with owner excluded = %q", k, alt)
		}
		if got := r1.pick(k, map[string]bool{owner: true}); got != alt {
			t.Errorf("fallback pick(%q) unstable: %q then %q", k, alt, got)
		}
		// Excluding everyone yields nothing.
		if got := r1.pick(k, map[string]bool{"http://a": true, "http://b": true, "http://c": true}); got != "" {
			t.Errorf("pick(%q) with all excluded = %q, want empty", k, got)
		}
	}
	// Distinct band keys of one design should not all land on one node.
	owners := make(map[string]bool)
	for b := 0; b < 8; b++ {
		owners[r1.pick(fmt.Sprintf("des@0.5|bands=8|halo=2#band=%d", b), nil)] = true
	}
	if len(owners) < 2 {
		t.Errorf("8 band keys all routed to a single node: %v", owners)
	}
}

func TestWorkerHealthAndDraining(t *testing.T) {
	exec := &stubExec{
		fn:   func(context.Context, Job) (*Result, error) { return &Result{Legal: true}, nil },
		load: Load{QueuedJobs: 3, Workers: 4, DeviceWait: 20 * time.Millisecond, DeviceAcquires: 7},
	}
	w := NewWorker(exec, nil)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/w/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("health = %d %q, want 200 ok", resp.StatusCode, h.Status)
	}
	if h.QueuedJobs != 3 || h.Workers != 4 || h.DeviceWaitMs != 20 || h.DeviceAcquires != 7 {
		t.Errorf("health load = %+v", h)
	}

	w.Drain()
	resp, err = http.Get(srv.URL + "/w/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining health = %d %q, want 503 draining", resp.StatusCode, h.Status)
	}
	// Jobs are refused with the draining code once draining.
	st, eb := postJob(t, srv.URL, Job{Engine: "flex"})
	if st != http.StatusServiceUnavailable || eb.Code != codeDraining {
		t.Fatalf("job while draining = %d %+v, want 503 draining", st, eb)
	}
}

func postJob(t *testing.T, base string, job Job) (int, errorBody) {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/w/v1/job", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("decode error body: %v", err)
		}
	}
	return resp.StatusCode, eb
}

func TestWorkerJobErrors(t *testing.T) {
	execErr := error(nil)
	w := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		if execErr != nil {
			return nil, execErr
		}
		return &Result{Layout: "ok", Legal: true}, nil
	}}, nil)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	// Unknown fields are a 400 naming the field, mirroring the front door.
	resp, err := http.Post(srv.URL+"/w/v1/job", "application/json",
		strings.NewReader(`{"engine":"flex","prioritee":9}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Code != codeInvalid || !strings.Contains(eb.Error, "prioritee") {
		t.Fatalf("unknown field: %d %+v", resp.StatusCode, eb)
	}

	for _, tc := range []struct {
		err  error
		code string
		st   int
	}{
		{fmt.Errorf("parse: %w", ErrInvalidJob), codeInvalid, http.StatusBadRequest},
		{fmt.Errorf("queue full: %w", ErrOverloaded), codeOverloaded, http.StatusTooManyRequests},
		{fmt.Errorf("closing: %w", ErrDraining), codeDraining, http.StatusServiceUnavailable},
		{fmt.Errorf("band 2: %w", sched.ErrDeadlineExceeded), codeDeadline, http.StatusGatewayTimeout},
		{errors.New("engine exploded"), codeFailed, http.StatusInternalServerError},
	} {
		execErr = tc.err
		st, eb := postJob(t, srv.URL, Job{Engine: "flex"})
		if st != tc.st || eb.Code != tc.code {
			t.Errorf("exec err %v: got %d %q, want %d %q", tc.err, st, eb.Code, tc.st, tc.code)
		}
	}
}

func TestWorkerReanchorsDeadline(t *testing.T) {
	// The executor blocks until its context expires: the handler must
	// have derived that context's deadline from DeadlineMs, and the
	// failure must surface as a typed deadline, not a 500.
	w := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		if _, ok := ctx.Deadline(); !ok {
			return nil, errors.New("no deadline on executor context")
		}
		<-ctx.Done()
		return nil, fmt.Errorf("band expired in queue: %w", sched.ErrDeadlineExceeded)
	}}, nil)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	st, eb := postJob(t, srv.URL, Job{Engine: "flex", DeadlineMs: 20})
	if st != http.StatusGatewayTimeout || eb.Code != codeDeadline {
		t.Fatalf("mid-flight deadline = %d %+v, want 504 deadline", st, eb)
	}

	// Same shape, but the executor reports the raw context error: the
	// handler still classifies it as a deadline because it set one.
	w2 := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}, nil)
	srv2 := httptest.NewServer(w2.Handler())
	defer srv2.Close()
	st, eb = postJob(t, srv2.URL, Job{Engine: "flex", DeadlineMs: 20})
	if st != http.StatusGatewayTimeout || eb.Code != codeDeadline {
		t.Fatalf("ctx deadline = %d %+v, want 504 deadline", st, eb)
	}
}

// testWorkerServer boots a worker whose executor echoes the job layout,
// tagging it with the node name so tests can see who served a job.
func testWorkerServer(t *testing.T, name string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	w := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		served.Add(1)
		return &Result{Layout: job.Layout, Legal: true, ModeledSeconds: 1}, nil
	}, load: Load{Workers: 1}}, nil)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	_ = name
	return srv, &served
}

func TestRouterRoutesByKeyAndRetriesWithExclusion(t *testing.T) {
	srvA, servedA := testWorkerServer(t, "a")
	srvB, servedB := testWorkerServer(t, "b")
	r := NewRouter(RouterConfig{
		Workers:       []string{srvA.URL, srvB.URL},
		Timeout:       5 * time.Second,
		ProbeInterval: -1, // passive only: the test drives health itself
	})
	defer r.Close()

	// Same key, same worker, every time (cache affinity).
	const key = "fft_a_md2@0.0100|bands=2|halo=2#band=0"
	for i := 0; i < 3; i++ {
		res, err := r.Do(context.Background(), key, Job{Engine: "flex", Layout: "band0"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Layout != "band0" || !res.Legal {
			t.Fatalf("result = %+v", res)
		}
	}
	a, b := servedA.Load(), servedB.Load()
	if a+b != 3 || (a != 0 && b != 0) {
		t.Fatalf("3 identical keys split across nodes: a=%d b=%d", a, b)
	}
	owner := srvA
	ownerServed, survivorServed := servedA, servedB
	if b > 0 {
		owner = srvB
		ownerServed, survivorServed = servedB, servedA
	}

	// Kill the owner: the same key must retry onto the survivor with the
	// dead node excluded, and the router must record the exclusion.
	owner.Close()
	res, err := r.Do(context.Background(), key, Job{Engine: "flex", Layout: "band0"})
	if err != nil {
		t.Fatalf("Do after owner death: %v", err)
	}
	if res.Layout != "band0" {
		t.Fatalf("result = %+v", res)
	}
	if got := survivorServed.Load(); got != 1 {
		t.Fatalf("survivor served %d jobs, want 1", got)
	}
	st := r.Stats()
	if st.Routed != 4 || st.Retried < 1 || st.Excluded < 1 {
		t.Fatalf("stats = %+v, want routed=4 retried>=1 excluded>=1", st)
	}
	var deadState string
	for _, n := range st.Nodes {
		if n.Addr == owner.URL {
			deadState = n.State
		}
	}
	if deadState != "dead" {
		t.Fatalf("dead node state = %q, want dead", deadState)
	}
	// Subsequent keys owned by the dead node skip it outright (it is
	// marked dead, not merely job-excluded).
	for i := 0; i < 8; i++ {
		if _, err := r.Do(context.Background(), fmt.Sprintf("k%d", i), Job{Layout: "x"}); err != nil {
			t.Fatalf("Do with one dead node: %v", err)
		}
	}
	if ownerServed.Load() != 3 {
		t.Fatalf("dead node served new jobs: %d", ownerServed.Load())
	}
	if r.Stats().RemoteWall <= 0 {
		t.Error("RemoteWall not accumulated")
	}
}

func TestRouterDeadlineIsTypedNotTransport(t *testing.T) {
	w := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("queued past deadline: %w", sched.ErrDeadlineExceeded)
	}}, nil)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	r := NewRouter(RouterConfig{Workers: []string{srv.URL}, ProbeInterval: -1})
	defer r.Close()

	_, err := r.Do(context.Background(), "k", Job{Engine: "flex", DeadlineMs: 20})
	if !errors.Is(err, sched.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want sched.ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrNoWorkers) {
		t.Fatalf("deadline was retried to exhaustion: %v", err)
	}
}

func TestRouterDrainingExcludedThenRecovered(t *testing.T) {
	var drainA atomic.Bool
	wA := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		return &Result{Layout: "A", Legal: true}, nil
	}, load: Load{Workers: 1}}, nil)
	muxA := http.NewServeMux()
	muxA.Handle("/", http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if drainA.Load() {
			writeError(rw, http.StatusServiceUnavailable, codeDraining, "worker draining")
			return
		}
		wA.Handler().ServeHTTP(rw, req)
	}))
	srvA := httptest.NewServer(muxA)
	defer srvA.Close()
	srvB, _ := testWorkerServer(t, "b")

	r := NewRouter(RouterConfig{Workers: []string{srvA.URL, srvB.URL}, ProbeInterval: -1})
	defer r.Close()

	// Find a key owned by A.
	var keyA string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.pickNode(k, nil) == srvA.URL {
			keyA = k
			break
		}
	}
	if keyA == "" {
		t.Fatal("no key routed to node A")
	}

	drainA.Store(true)
	res, err := r.Do(context.Background(), keyA, Job{Layout: "x"})
	if err != nil {
		t.Fatalf("Do with draining owner: %v", err)
	}
	if res.Layout != "A" {
		// Served by B's echo executor instead.
		if res.Layout != "x" {
			t.Fatalf("unexpected server for drained key: %+v", res)
		}
	} else {
		t.Fatalf("draining node served the job")
	}
	// The probe path recovers the node once it stops draining.
	drainA.Store(false)
	rn := r.nodes[srvA.URL]
	if got := rn.state.Load(); got != nodeDraining {
		t.Fatalf("node A state = %v, want draining", got)
	}
	r.probe(context.Background(), rn)
	if got := rn.state.Load(); got != nodeAlive {
		t.Fatalf("node A state after probe = %v, want alive", got)
	}
	res, err = r.Do(context.Background(), keyA, Job{Layout: "x"})
	if err != nil || res.Layout != "A" {
		t.Fatalf("recovered node not used: res=%+v err=%v", res, err)
	}
}

func TestRouterAllNodesDown(t *testing.T) {
	srv, _ := testWorkerServer(t, "a")
	url := srv.URL
	srv.Close()
	r := NewRouter(RouterConfig{Workers: []string{url}, ProbeInterval: -1})
	defer r.Close()
	_, err := r.Do(context.Background(), "k", Job{Layout: "x"})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestRouterInvalidJobNotRetried(t *testing.T) {
	srvA, servedA := testWorkerServer(t, "a")
	srvB, servedB := testWorkerServer(t, "b")
	// A front worker that always rejects as invalid.
	w := NewWorker(&stubExec{fn: func(ctx context.Context, job Job) (*Result, error) {
		return nil, fmt.Errorf("no such design: %w", ErrInvalidJob)
	}}, nil)
	srvBad := httptest.NewServer(w.Handler())
	defer srvBad.Close()

	r := NewRouter(RouterConfig{Workers: []string{srvBad.URL}, ProbeInterval: -1})
	defer r.Close()
	_, err := r.Do(context.Background(), "k", Job{Engine: "nope"})
	if !errors.Is(err, ErrInvalidJob) {
		t.Fatalf("err = %v, want ErrInvalidJob", err)
	}
	if servedA.Load()+servedB.Load() != 0 {
		t.Fatal("invalid job was retried on healthy nodes")
	}
	_ = srvA
	_ = srvB
}
