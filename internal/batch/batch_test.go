package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Values unwraps a fully successful result set into plain values, in
// submission order, returning the first per-job error it finds.
func Values[T any](results []Result[T]) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}

// squares builds n jobs whose values depend only on their index, so any
// worker count must reproduce the same result set.
func squares(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	return jobs
}

// runFresh runs jobs as one unclassed batch on a fresh pool of the given
// worker count with no device model, then closes the pool — the one-shot
// batch shape the tests below pin.
func runFresh[T any](ctx context.Context, workers int, jobs []Job[T], failFast bool, onResult func(Result[T])) ([]Result[T], Stats, error) {
	p := NewPool(PoolConfig{Workers: workers, FPGAs: -1})
	defer p.Close()
	return RunClassedOn(ctx, p, jobs, nil, failFast, onResult)
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := squares(64)
	var want []int
	for _, workers := range []int{1, 2, 4, 8, 64, 0} {
		results, st, err := runFresh(context.Background(), workers, jobs, false, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := Values(results)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
		}
		for i := range got {
			if got[i] != want[i] || got[i] != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], i*i)
			}
			if results[i].Index != i {
				t.Fatalf("workers=%d: results not in submission order at %d", workers, i)
			}
		}
		if st.Jobs != 64 || st.Errors != 0 || st.Skipped != 0 {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int32
	jobs := make([]Job[struct{}], 24)
	for i := range jobs {
		jobs[i] = func(context.Context) (struct{}, error) {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		}
	}
	if _, _, err := runFresh(context.Background(), workers, jobs, false, nil); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", got, workers)
	}
}

func TestRunErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			if i%3 == 0 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			return i, nil
		}
	}
	results, st, err := runFresh(context.Background(), 4, jobs, false, nil)
	if err != nil {
		t.Fatalf("non-fail-fast run surfaced batch error: %v", err)
	}
	for i, r := range results {
		if i%3 == 0 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("job %d: err = %v, want boom", i, r.Err)
			}
		} else if r.Err != nil || r.Value != i {
			t.Fatalf("job %d poisoned by sibling failure: %+v", i, r)
		}
	}
	if st.Errors != 4 || st.Skipped != 0 {
		t.Fatalf("stats %+v, want 4 errors, 0 skipped", st)
	}
	if _, err := Values(results); !errors.Is(err, boom) {
		t.Fatalf("Values err = %v, want boom", err)
	}
}

func TestRunFailFastSkipsRemainder(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	jobs := make([]Job[int], 100)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}
	}
	results, st, err := runFresh(context.Background(), 2, jobs, true, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want first job error", err)
	}
	if st.Skipped == 0 {
		t.Fatal("fail-fast run skipped nothing")
	}
	if int(ran.Load())+st.Skipped != len(jobs) {
		t.Fatalf("ran %d + skipped %d != %d jobs", ran.Load(), st.Skipped, len(jobs))
	}
	for _, r := range results[1:] {
		if r.Err != nil && !errors.Is(r.Err, ErrSkipped) {
			t.Fatalf("job %d: unexpected err %v", r.Index, r.Err)
		}
	}
}

func TestRunContextCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var once sync.Once
	jobs := make([]Job[int], 50)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			once.Do(func() { cancel(); close(release) })
			<-release
			return i, nil
		}
	}
	results, st, err := runFresh(ctx, 2, jobs, false, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Skipped == 0 {
		t.Fatal("cancellation mid-batch skipped nothing")
	}
	completed := 0
	for _, r := range results {
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, ErrSkipped):
		default:
			t.Fatalf("job %d: unexpected err %v", r.Index, r.Err)
		}
	}
	if completed == 0 {
		t.Fatal("in-flight jobs should finish and report")
	}
	if completed+st.Skipped != len(jobs) {
		t.Fatalf("completed %d + skipped %d != %d", completed, st.Skipped, len(jobs))
	}
}

// TestRunMidFlightCancelContract pins the documented contract for the case
// the old code got wrong: every job is already in flight when the context
// is canceled, so nothing is skipped and each job reports ctx.Err() as its
// own error — Run must still fail the batch with the context error instead
// of returning nil.
func TestRunMidFlightCancelContract(t *testing.T) {
	const n = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started sync.WaitGroup
	started.Add(n)
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			started.Done()
			<-ctx.Done() // abort only once the batch is canceled
			return 0, ctx.Err()
		}
	}
	go func() {
		started.Wait() // all n jobs in flight: nothing left to skip
		cancel()
	}()
	results, st, err := runFresh(ctx, n, jobs, false, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled despite zero skipped jobs", err)
	}
	if st.Skipped != 0 {
		t.Fatalf("skipped = %d, want 0 (every job was in flight)", st.Skipped)
	}
	if st.Errors != n {
		t.Fatalf("errors = %d, want %d", st.Errors, n)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", r.Index, r.Err)
		}
	}
}

// TestRunDeadlineMidFlight is the DeadlineExceeded twin of the contract.
func TestRunDeadlineMidFlight(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	jobs := []Job[int]{func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}}
	_, st, err := runFresh(ctx, 1, jobs, false, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st.Skipped != 0 || st.Errors != 1 {
		t.Fatalf("stats %+v, want 0 skipped / 1 error", st)
	}
}

// TestRunJobOwnedTimeoutIsIsolated guards the flip side of the contract
// fix: a job failing with its own sub-context's deadline while the batch
// context is healthy stays an isolated per-job error.
func TestRunJobOwnedTimeoutIsIsolated(t *testing.T) {
	jobs := []Job[int]{
		func(context.Context) (int, error) { return 0, context.DeadlineExceeded },
		func(context.Context) (int, error) { return 7, nil },
	}
	results, st, err := runFresh(context.Background(), 1, jobs, false, nil)
	if err != nil {
		t.Fatalf("healthy batch surfaced error: %v", err)
	}
	if st.Errors != 1 || st.Skipped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if results[1].Err != nil || results[1].Value != 7 {
		t.Fatalf("sibling poisoned: %+v", results[1])
	}
}

// TestRunLateCancelKeepsCompletedResults guards the other side of the
// contract: the parent context dying only after every job already finished
// must not fail the batch — even when one job failed with its own
// sub-context's timeout while the batch was healthy.
func TestRunLateCancelKeepsCompletedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job[int]{
		// A job-owned timeout on a healthy batch: isolated, not batch-fatal.
		func(context.Context) (int, error) { return 0, context.DeadlineExceeded },
		func(context.Context) (int, error) { return 7, nil },
	}
	done := 0
	results, st, err := runFresh(ctx, 1, jobs, false, func(Result[int]) {
		done++
		if done == len(jobs) {
			cancel() // parent dies only after the last job completed
		}
	})
	if err != nil {
		t.Fatalf("fully completed batch failed with %v after late cancel", err)
	}
	if st.Skipped != 0 || st.Errors != 1 {
		t.Fatalf("stats %+v, want 0 skipped / 1 error", st)
	}
	if results[1].Err != nil || results[1].Value != 7 {
		t.Fatalf("completed result lost: %+v", results[1])
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, st, err := runFresh(ctx, 4, squares(8), false, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st.Skipped != 8 {
		t.Fatalf("skipped = %d, want 8", st.Skipped)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrSkipped) {
			t.Fatalf("job %d: err = %v, want ErrSkipped", r.Index, r.Err)
		}
	}
}

func TestStreamCompletionOrderCoversAllJobs(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 5, FPGAs: -1})
	defer p.Close()
	ch, err := StreamClassedOn(context.Background(), p, squares(32), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r := range ch {
		if seen[r.Index] {
			t.Fatalf("job %d reported twice", r.Index)
		}
		seen[r.Index] = true
		if r.Err != nil || r.Value != r.Index*r.Index {
			t.Fatalf("bad result %+v", r)
		}
	}
	if len(seen) != 32 {
		t.Fatalf("stream reported %d of 32 jobs", len(seen))
	}
}

func TestRunEmpty(t *testing.T) {
	results, st, err := runFresh(context.Background(), 0, []Job[int](nil), false, nil)
	if err != nil || len(results) != 0 || st.Jobs != 0 {
		t.Fatalf("empty batch: results=%v stats=%+v err=%v", results, st, err)
	}
}

func TestStatsWorkWallReflectsParallelism(t *testing.T) {
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return 0, nil
		}
	}
	_, st, err := runFresh(context.Background(), 4, jobs, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkWall < st.Wall {
		t.Fatalf("summed job wall %v below batch wall %v despite 4 workers", st.WorkWall, st.Wall)
	}
}
