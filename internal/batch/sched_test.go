package batch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/sched"
)

// squaresClassed builds n trivial jobs with the given classes.
func squaresClassed(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	return jobs
}

// TestClassedPoolRunsByPriority pins the scheduler wiring end to end: with
// one worker held busy, queued jobs complete in priority order, not
// submission order — and the results still land by submission index.
func TestClassedPoolRunsByPriority(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()

	// Occupy the single worker so the classed batch queues in full.
	gate := make(chan struct{})
	started := make(chan struct{})
	blocker := []Job[int]{func(context.Context) (int, error) {
		close(started)
		<-gate
		return -1, nil
	}}
	bch, err := StreamClassedOn(context.Background(), p, blocker, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []int
	jobs := make([]Job[int], 4)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return i, nil
		}
	}
	classes := []sched.Class{
		{Priority: 0}, {Priority: 9}, {Priority: 4}, {Priority: 9},
	}
	ch, err := StreamClassedOn(context.Background(), p, jobs, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for range bch {
	}
	results := make([]Result[int], len(jobs))
	for r := range ch {
		results[r.Index] = r
	}
	want := []int{1, 3, 2, 0} // 9, 9 (arrival order), 4, 0
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order %v, want %v", order, want)
		}
	}
	for i, r := range results {
		if r.Err != nil || r.Value != i {
			t.Fatalf("result %d: %+v (classed scheduling must not change results)", i, r)
		}
	}
}

// TestSchedWaitRecorded pins the queue-wait measurement: a job that had to
// wait for the single busy worker reports a positive SchedWait.
func TestSchedWaitRecorded(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()
	slow := func(context.Context) (int, error) {
		time.Sleep(10 * time.Millisecond)
		return 1, nil
	}
	fast := func(context.Context) (int, error) { return 2, nil }
	results, st, err := RunClassedOn(context.Background(), p, []Job[int]{slow, fast}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].SchedWait <= 0 {
		t.Fatalf("second job on a busy single worker waited %v, want > 0", results[1].SchedWait)
	}
	if st.SchedWait < results[1].SchedWait {
		t.Fatalf("stats SchedWait %v < job's %v", st.SchedWait, results[1].SchedWait)
	}
}

// TestExpiredDeadlineFailsFastWithoutRunning pins the deadline contract:
// a job whose absolute deadline passed while it queued surfaces
// sched.ErrDeadlineExceeded and its body never runs.
func TestExpiredDeadlineFailsFastWithoutRunning(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()
	var ran atomic.Bool
	jobs := []Job[int]{
		func(context.Context) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return 1, nil
		},
		func(context.Context) (int, error) {
			ran.Store(true)
			return 2, nil
		},
	}
	classes := []sched.Class{
		{},
		{Deadline: time.Now().Add(-time.Millisecond)}, // already expired
	}
	results, st, err := RunClassedOn(context.Background(), p, jobs, classes, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[1].Err, sched.ErrDeadlineExceeded) {
		t.Fatalf("expired job err = %v, want ErrDeadlineExceeded", results[1].Err)
	}
	if ran.Load() {
		t.Fatal("expired job's body ran")
	}
	if st.Errors != 1 {
		t.Fatalf("stats %+v, want 1 error", st)
	}
	// A future deadline must not trip.
	classes[1].Deadline = time.Now().Add(time.Hour)
	results, _, err = RunClassedOn(context.Background(), p, jobs, classes, false, nil)
	if err != nil || results[1].Err != nil {
		t.Fatalf("future deadline failed: %v, %+v", err, results[1])
	}
}

// TestClientQuotaCapsInFlight pins the per-tenant quota at the pool level:
// with quota 1, a client's jobs never run concurrently even with idle
// workers, while another client's jobs fill the slack.
func TestClientQuotaCapsInFlight(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 4, ClientQuota: 1})
	defer p.Close()
	var cur, max atomic.Int32
	job := func(context.Context) (int, error) {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0, nil
	}
	jobs := make([]Job[int], 8)
	classes := make([]sched.Class, 8)
	for i := range jobs {
		jobs[i] = job
		classes[i] = sched.Class{Client: "tenant-a"}
	}
	if _, _, err := RunClassedOn(context.Background(), p, jobs, classes, false, nil); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > 1 {
		t.Fatalf("client at quota 1 had %d jobs in flight", got)
	}
}

// TestClientDepthAdmission pins the per-client admission bound: a batch
// pushing one client past ClientDepth is rejected atomically with a
// ClientOverloadedError naming the client, while other clients still fit.
func TestClientDepthAdmission(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, ClientDepth: 2})
	defer p.Close()

	oversized := make([]sched.Class, 3)
	for i := range oversized {
		oversized[i] = sched.Class{Client: "greedy"}
	}
	_, err := StreamClassedOn(context.Background(), p, squaresClassed(3), oversized, false)
	if !errors.Is(err, ErrClientOverloaded) {
		t.Fatalf("err = %v, want ErrClientOverloaded", err)
	}
	var coe *ClientOverloadedError
	if !errors.As(err, &coe) || coe.Client != "greedy" {
		t.Fatalf("rejection does not name the client: %v", err)
	}

	// Hold the client's two slots, then watch a third bounce while a
	// different client is still admitted.
	started := make(chan struct{})
	release := make(chan struct{})
	hold := []Job[int]{
		func(context.Context) (int, error) { close(started); <-release; return 1, nil },
		func(context.Context) (int, error) { return 2, nil },
	}
	two := []sched.Class{{Client: "greedy"}, {Client: "greedy"}}
	ch, err := StreamClassedOn(context.Background(), p, hold, two, false)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_, err = StreamClassedOn(context.Background(), p, squaresClassed(1), []sched.Class{{Client: "greedy"}}, false)
	if !errors.Is(err, ErrClientOverloaded) {
		t.Fatalf("client at depth admitted: %v", err)
	}
	if p.AdmittedByClient("greedy") != 2 {
		t.Fatalf("AdmittedByClient = %d, want 2", p.AdmittedByClient("greedy"))
	}
	anon, err := StreamClassedOn(context.Background(), p, squaresClassed(1), nil, false)
	if err != nil {
		t.Fatalf("anonymous client rejected alongside: %v", err)
	}
	close(release)
	for range ch {
	}
	for range anon {
	}
}

// TestConcurrentBatchAdmissionUnderRace is the satellite stress: many
// concurrent batches race the admission bound; every batch either runs in
// full or is rejected atomically, and the admission counter returns to
// zero. Run under -race in CI.
func TestConcurrentBatchAdmissionUnderRace(t *testing.T) {
	const depth = 6
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: depth, ClientDepth: 4})
	defer p.Close()
	var admitted, rejected atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := "even"
			if g%2 == 1 {
				client = "odd"
			}
			for iter := 0; iter < 20; iter++ {
				jobs := squaresClassed(2)
				classes := []sched.Class{{Client: client}, {Client: client, Priority: g}}
				results, _, err := RunClassedOn(context.Background(), p, jobs, classes, false, nil)
				switch {
				case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClientOverloaded):
					rejected.Add(1)
					if results != nil {
						t.Errorf("rejected batch returned results")
					}
				case err != nil:
					t.Errorf("batch error: %v", err)
				default:
					admitted.Add(1)
					for i, r := range results {
						if r.Err != nil || r.Value != i*i {
							t.Errorf("admitted batch lost job %d: %+v", i, r)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if admitted.Load() == 0 {
		t.Fatal("no batch was ever admitted")
	}
	if got := p.Admitted(); got != 0 {
		t.Fatalf("admission counter leaked: %d", got)
	}
	if got := p.AdmittedByClient("even") + p.AdmittedByClient("odd"); got != 0 {
		t.Fatalf("per-client admission counter leaked: %d", got)
	}
}

// TestCanceledBatchDrainsWithoutWorkers pins cancellation responsiveness:
// a canceled batch's still-queued jobs are dropped from the scheduler and
// skipped immediately — the stream drains even though the only worker is
// wedged under another tenant's job, instead of waiting its turn behind
// that backlog.
func TestCanceledBatchDrainsWithoutWorkers(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := []Job[int]{func(context.Context) (int, error) {
		close(started)
		<-release
		return 0, nil
	}}
	bch, err := StreamClassedOn(context.Background(), p, blocker, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := StreamClassedOn(ctx, p, squaresClassed(8), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	drained := make(chan []Result[int], 1)
	go func() {
		var rs []Result[int]
		for r := range ch {
			rs = append(rs, r)
		}
		drained <- rs
	}()
	select {
	case rs := <-drained:
		if len(rs) != 8 {
			t.Fatalf("drained %d results, want 8", len(rs))
		}
		for _, r := range rs {
			if !errors.Is(r.Err, ErrSkipped) {
				t.Fatalf("job %d: %v, want ErrSkipped", r.Index, r.Err)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled batch stayed queued behind the wedged worker")
	}
	close(release)
	for range bch {
	}
}

// TestDeviceCancelDuringWaitStats is the satellite ordering test: a
// cancellation that lands while several jobs are queued for the board (not
// just one, and not in the happy teardown order) must keep every aborted
// wait on the books — Wait > 0 and Contended counts each aborted attempt —
// without double-freeing tokens.
func TestDeviceCancelDuringWaitStats(t *testing.T) {
	dev := newDevice(1, 0, sched.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	ctx = withDevice(ctx, dev)

	letGo := holdOnGoroutine(t, ctx)
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			errs <- HoldDevice(ctx, func() {})
		}()
	}
	// Let every waiter queue, then cancel while the board is still held —
	// the unhappy ordering: cancellation strictly before release.
	time.Sleep(10 * time.Millisecond)
	cancel()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d: %v, want context.Canceled", i, err)
		}
	}
	// Release after the cancellations — stats must survive this ordering.
	if err := letGo(); err != nil {
		t.Fatal(err)
	}
	ds := dev.Stats()
	if ds.Acquires != 1 {
		t.Fatalf("acquires = %d, want 1 (no canceled waiter got a token)", ds.Acquires)
	}
	if ds.Contended != waiters {
		t.Fatalf("contended = %d, want %d aborted waits", ds.Contended, waiters)
	}
	if ds.Wait <= 0 {
		t.Fatalf("aborted queue time vanished: %+v", ds)
	}
	// The board must be whole: a fresh hold succeeds immediately.
	if err := HoldDevice(withDevice(context.Background(), dev), func() {}); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Acquires; got != 2 {
		t.Fatalf("acquires after recovery = %d, want 2", got)
	}
}

// TestDeviceReconfigChargedBetweenJobs pins the reconfiguration model:
// consecutive holders from different jobs reprogram the board (and pay the
// modeled delay); a job re-acquiring its own board does not.
func TestDeviceReconfigChargedBetweenJobs(t *testing.T) {
	const cost = 5 * time.Millisecond
	dev := newDevice(1, cost, sched.Config{})
	acquireAs := func(job string) {
		ctx := withClass(withDevice(context.Background(), dev), sched.Class{Job: job})
		if err := HoldDevice(ctx, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	acquireAs("alpha") // first use: bitstream load
	acquireAs("alpha") // warm: no reconfig
	acquireAs("beta")  // swap: reconfig
	ds := dev.Stats()
	if ds.Reconfigs != 2 {
		t.Fatalf("reconfigs = %d, want 2 (first load + swap)", ds.Reconfigs)
	}
	if ds.ReconfigTime < 2*cost-time.Millisecond {
		t.Fatalf("reconfig time %v, want ~%v", ds.ReconfigTime, 2*cost)
	}
	if ds.Hold < ds.ReconfigTime {
		t.Fatalf("hold %v < reconfig time %v (programming keeps the board busy)", ds.Hold, ds.ReconfigTime)
	}
	if ds.ReconfigCost != cost {
		t.Fatalf("ReconfigCost = %v, want %v", ds.ReconfigCost, cost)
	}
}

// TestDeviceReconfigFreeByDefault pins the default: with no configured
// cost, reconfigurations are counted but charge no time, so existing
// configurations behave exactly as before.
func TestDeviceReconfigFreeByDefault(t *testing.T) {
	dev := newDevice(1, 0, sched.Config{})
	if err := HoldDevice(withDevice(context.Background(), dev), func() {}); err != nil {
		t.Fatal(err)
	}
	ds := dev.Stats()
	if ds.Reconfigs != 1 || ds.ReconfigTime != 0 {
		t.Fatalf("default-cost stats %+v, want 1 free reconfig", ds)
	}
}

// TestClassedResultsIdenticalAcrossPolicies is the determinism gate at the
// batch layer: the same classed job set yields identical values under
// FIFO, priority, and shuffled-priority schedules across worker counts.
func TestClassedResultsIdenticalAcrossPolicies(t *testing.T) {
	const n = 16
	jobs := squaresClassed(n)
	shuffled := make([]sched.Class, n)
	for i := range shuffled {
		shuffled[i] = sched.Class{Priority: (i * 7) % 5, Client: []string{"a", "b"}[i%2]}
	}
	var want []int
	for _, policy := range []sched.Policy{sched.FIFO(), sched.Default()} {
		for _, classes := range [][]sched.Class{nil, shuffled} {
			for _, workers := range []int{1, 4} {
				p := NewPool(PoolConfig{Workers: workers, Policy: policy})
				results, _, err := RunClassedOn(context.Background(), p, jobs, classes, false, nil)
				p.Close()
				if err != nil {
					t.Fatal(err)
				}
				got, err := Values(results)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("policy %T workers %d: result[%d] = %d, want %d",
							policy, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
