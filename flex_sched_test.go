package flex_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	flex "github.com/flex-eda/flex"
)

// schedJobs is a small (design × engine) grid with a shuffled priority
// assignment and two tenants — the fixed job set of the scheduling
// byte-identity gate.
func schedJobs() []flex.BatchJob {
	jobs := serviceJobs()
	for i := range jobs {
		jobs[i].Priority = (i * 7) % 5
		jobs[i].Client = []string{"tenant-a", "tenant-b"}[i%2]
	}
	return jobs
}

// serializeOutcomes collapses a summary's layouts and metrics to bytes, so
// runs can be compared for exact equality.
func serializeOutcomes(t *testing.T, sum *flex.BatchSummary) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range sum.Results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", r.Index, r.Tag, r.Err)
		}
		o := r.Outcome
		fmt.Fprintf(&buf, "%d %s %v %.9f %.9f %.9f\n",
			r.Index, o.Engine, o.Legal, o.Metrics.AveDis, o.Metrics.MaxDis, o.ModeledSeconds)
		if err := flex.WriteLayout(&buf, o.Layout); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestServiceByteIdenticalAcrossSchedulers is the tentpole's acceptance
// gate: a fixed job set with shuffled priorities, deadlines far away, and
// mixed clients yields byte-identical outcomes under FIFO and priority
// scheduling across the workers × fpgas grid — scheduling changes when
// jobs run, never what they compute.
func TestServiceByteIdenticalAcrossSchedulers(t *testing.T) {
	var want []byte
	for _, scheduler := range []flex.Scheduler{flex.SchedulerFIFO, flex.SchedulerPriority} {
		for _, workers := range []int{1, 4} {
			for _, fpgas := range []int{1, 2} {
				svc := flex.NewService(
					flex.WithWorkers(workers), flex.WithFPGAs(fpgas),
					flex.WithScheduler(scheduler),
					flex.WithClientQuota(2),
					flex.WithReconfigCost(time.Millisecond),
				)
				sum, err := svc.Submit(context.Background(), schedJobs(), flex.SubmitOptions{})
				svc.Close()
				if err != nil {
					t.Fatalf("%v workers=%d fpgas=%d: %v", scheduler, workers, fpgas, err)
				}
				got := serializeOutcomes(t, sum)
				if want == nil {
					want = got
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v workers=%d fpgas=%d: outcomes differ from the reference run",
						scheduler, workers, fpgas)
				}
			}
		}
	}
}

// TestServiceDeadlineExpiredFailsFast pins ErrDeadlineExceeded end to end:
// an already-expired deadline surfaces in the job's BatchResult without the
// engine running, while fresh siblings legalize normally.
func TestServiceDeadlineExpiredFailsFast(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1))
	defer svc.Close()
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineMGL},
		{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineMGL,
			Deadline: time.Now().Add(-time.Second)},
	}
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sum.Results[1].Err, flex.ErrDeadlineExceeded) {
		t.Fatalf("expired job err = %v, want ErrDeadlineExceeded", sum.Results[1].Err)
	}
	if sum.Results[1].Outcome != nil || sum.Results[1].Wall != 0 {
		t.Fatalf("expired job ran: %+v", sum.Results[1])
	}
	if sum.Results[0].Err != nil || !sum.Results[0].Outcome.Legal {
		t.Fatalf("healthy sibling: %+v", sum.Results[0])
	}
	if sum.Errors != 1 {
		t.Fatalf("summary errors = %d, want 1", sum.Errors)
	}
}

// TestServiceClientQuotaCapsInFlight pins the per-tenant quota at the flex
// layer: with quota 1 and four workers, a single client's jobs are never
// observed running concurrently (the deterministic enforcement test lives
// at the batch layer; this smokes the wiring through Service options and
// the RunningByClient stats surface).
func TestServiceClientQuotaCapsInFlight(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(4), flex.WithClientQuota(1))
	defer svc.Close()
	layout, err := flex.GenerateCustom(400, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]flex.BatchJob, 6)
	for i := range jobs {
		jobs[i] = flex.BatchJob{Layout: layout, Engine: flex.EngineMGL, Client: "solo"}
	}
	ch, err := svc.Stream(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var max atomic.Int32
	poll := make(chan struct{})
	go func() {
		for {
			select {
			case <-poll:
				return
			default:
			}
			if n := int32(svc.Stats().RunningByClient["solo"]); n > max.Load() {
				max.Store(n)
			}
		}
	}()
	for r := range ch {
		if r.Err != nil {
			t.Errorf("job %d: %v", r.Index, r.Err)
		}
	}
	close(poll)
	if max.Load() > 1 {
		t.Fatalf("client at quota 1 observed %d running", max.Load())
	}
}

// TestServiceClientQueueDepth429Path pins the per-client admission bound:
// a submission pushing one tenant past WithClientQueueDepth is rejected
// with a ClientOverloadedError naming the tenant; other tenants still fit.
func TestServiceClientQueueDepth(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithClientQueueDepth(2))
	defer svc.Close()
	layout, err := flex.GenerateCustom(200, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	greedy := make([]flex.BatchJob, 3)
	for i := range greedy {
		greedy[i] = flex.BatchJob{Layout: layout, Engine: flex.EngineMGL, Client: "greedy"}
	}
	_, err = svc.Submit(context.Background(), greedy, flex.SubmitOptions{})
	if !errors.Is(err, flex.ErrClientOverloaded) {
		t.Fatalf("err = %v, want ErrClientOverloaded", err)
	}
	var coe *flex.ClientOverloadedError
	if !errors.As(err, &coe) || coe.Client != "greedy" {
		t.Fatalf("rejection does not name the client: %v", err)
	}
	if st := svc.Stats(); st.ClientOverloaded != 1 {
		t.Fatalf("ClientOverloaded = %d, want 1", st.ClientOverloaded)
	}
	// Two jobs fit; a different client fits alongside.
	mixed := []flex.BatchJob{
		{Layout: layout, Engine: flex.EngineMGL, Client: "greedy"},
		{Layout: layout, Engine: flex.EngineMGL, Client: "greedy"},
		{Layout: layout, Engine: flex.EngineMGL, Client: "polite"},
	}
	if _, err := svc.Submit(context.Background(), mixed, flex.SubmitOptions{}); err != nil {
		t.Fatalf("within-bound submission rejected: %v", err)
	}
}

// TestServiceSchedulerStats pins the new observability surface: scheduler
// name, per-priority queue depths, and reconfiguration accounting.
func TestServiceSchedulerStats(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1),
		flex.WithScheduler(flex.SchedulerPriority),
		flex.WithClientQuota(3), flex.WithClientQueueDepth(7),
		flex.WithReconfigCost(2*time.Millisecond))
	defer svc.Close()
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineFLEX, Priority: 5},
		{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineFLEX, Priority: 5},
	}
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Scheduler != "priority" || st.ClientQuota != 3 || st.ClientQueueDepth != 7 {
		t.Fatalf("scheduling knobs missing from stats: %+v", st)
	}
	if st.ReconfigCost != 2*time.Millisecond {
		t.Fatalf("ReconfigCost = %v", st.ReconfigCost)
	}
	// Two distinct jobs on one board: both acquisitions reprogram it.
	if st.Reconfigs != 2 || st.ReconfigTime <= 0 {
		t.Fatalf("reconfig accounting: %+v", st)
	}
	if sum.Reconfigs != 2 || sum.ReconfigSeconds <= 0 {
		t.Fatalf("summary reconfig accounting: %+v", sum)
	}
	// The modeled total folds the programming overhead in.
	var engines float64
	for _, r := range sum.Results {
		engines += r.Outcome.ModeledSeconds
	}
	if sum.ModeledSeconds <= engines {
		t.Fatalf("ModeledSeconds %.9f does not include reconfig overhead over %.9f",
			sum.ModeledSeconds, engines)
	}
	if st.QueuedByPriority == nil {
		t.Fatal("QueuedByPriority missing")
	}
}

// TestParseScheduler: every CLI's -sched flag accepts "", "priority" and
// "fifo", each name round-trips through String, and an unknown name fails.
func TestParseScheduler(t *testing.T) {
	for name, want := range map[string]flex.Scheduler{
		"": flex.SchedulerPriority, "priority": flex.SchedulerPriority, "fifo": flex.SchedulerFIFO,
	} {
		got, err := flex.ParseScheduler(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheduler(%q) = %v, %v; want %v", name, got, err, want)
		}
		if name != "" && got.String() != name {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := flex.ParseScheduler("sjf"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestShardedWarmCacheSkipsResplit is the shard-aware cache-key satellite:
// on a caching service, the second identical sharded submission reuses the
// memoized band decomposition — no new cache misses — and still stitches
// the identical result.
func TestShardedWarmCacheSkipsResplit(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2), flex.WithCacheBytes(64<<20))
	defer svc.Close()
	job := []flex.BatchJob{{
		Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 3,
	}}
	cold, err := svc.Submit(context.Background(), job, flex.SubmitOptions{})
	if err != nil || cold.Results[0].Err != nil {
		t.Fatalf("cold sharded run: %v, %+v", err, cold.Results[0].Err)
	}
	misses := svc.Stats().CacheMisses
	if misses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	warm, err := svc.Submit(context.Background(), job, flex.SubmitOptions{})
	if err != nil || warm.Results[0].Err != nil {
		t.Fatalf("warm sharded run: %v, %+v", err, warm.Results[0].Err)
	}
	if got := svc.Stats().CacheMisses; got != misses {
		t.Fatalf("warm sharded run re-split: misses %d -> %d", misses, got)
	}
	var a, b bytes.Buffer
	if err := flex.WriteLayout(&a, cold.Results[0].Outcome.Layout); err != nil {
		t.Fatal(err)
	}
	if err := flex.WriteLayout(&b, warm.Results[0].Outcome.Layout); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("warm sharded result differs from cold")
	}
	// A different band count or halo is a different decomposition: it must
	// miss, not alias the cached one.
	other := []flex.BatchJob{{
		Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 2,
	}}
	if _, err := svc.Submit(context.Background(), other, flex.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().CacheMisses; got <= misses {
		t.Fatalf("different shard count aliased the cached decomposition (misses still %d)", got)
	}
}
