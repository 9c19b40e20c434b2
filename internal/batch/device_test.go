package batch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/sched"
)

// deviceJobs builds n jobs that each hold the batch device for a moment and
// record how many holders overlap, returning the job's index as its value.
func deviceJobs(n int, holders, maxHolders *atomic.Int32) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			err := HoldDevice(ctx, func() {
				h := holders.Add(1)
				for {
					m := maxHolders.Load()
					if h <= m || maxHolders.CompareAndSwap(m, h) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				holders.Add(-1)
			})
			if err != nil {
				return 0, err
			}
			return i, nil
		}
	}
	return jobs
}

func TestDeviceBoundsConcurrentHolders(t *testing.T) {
	for _, capacity := range []int{1, 2} {
		var holders, max atomic.Int32
		p := NewPool(PoolConfig{Workers: 6, FPGAs: capacity})
		_, st, err := RunClassedOn(context.Background(), p, deviceJobs(12, &holders, &max), nil, false, nil)
		p.Close()
		if err != nil {
			t.Fatalf("capacity=%d: %v", capacity, err)
		}
		if got := max.Load(); int(got) > capacity {
			t.Fatalf("capacity=%d: observed %d concurrent holders", capacity, got)
		}
		ds := p.Device().Stats()
		if ds.Acquires != 12 {
			t.Fatalf("capacity=%d: %d acquires, want 12", capacity, ds.Acquires)
		}
		if ds.Capacity != capacity || st.FPGAs != capacity {
			t.Fatalf("capacity=%d: device reports %d, stats report %d", capacity, ds.Capacity, st.FPGAs)
		}
		if st.DeviceAcquires != 12 {
			t.Fatalf("capacity=%d: stats count %d acquires", capacity, st.DeviceAcquires)
		}
		if ds.Hold <= 0 || st.DeviceHold <= 0 {
			t.Fatalf("capacity=%d: no hold time recorded (device %v, stats %v)", capacity, ds.Hold, st.DeviceHold)
		}
	}
}

// TestDeviceContentionRecorded pins the scheduling signature: with one
// board and jobs that are all in the device phase, later jobs must wait,
// and the wait lands in their Result and the aggregate stats.
func TestDeviceContentionRecorded(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, FPGAs: 1})
	defer p.Close()
	gate := make(chan struct{})
	first := make(chan struct{})
	jobs := []Job[int]{
		func(ctx context.Context) (int, error) {
			err := HoldDevice(ctx, func() {
				close(first) // board held; let the second job start queueing
				<-gate
			})
			if err != nil {
				return 0, err
			}
			return 1, nil
		},
		func(ctx context.Context) (int, error) {
			<-first
			go func() {
				// Give the hold below a beat to start blocking, then
				// free the board. Worst case the sleep is too short and
				// the wait is just smaller — never flaky-negative.
				time.Sleep(5 * time.Millisecond)
				close(gate)
			}()
			if err := HoldDevice(ctx, func() {}); err != nil {
				return 0, err
			}
			return 2, nil
		},
	}
	results, st, err := RunClassedOn(context.Background(), p, jobs, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].DeviceWait <= 0 {
		t.Fatalf("second job waited %v, want > 0", results[1].DeviceWait)
	}
	if st.DeviceWait <= 0 || st.DeviceContended == 0 {
		t.Fatalf("aggregate stats missed the contention: %+v", st)
	}
	if p.Device().Stats().Contended == 0 {
		t.Fatal("device counted no contended acquires")
	}
}

// TestDeviceDeterministicAcrossWorkersAndCapacity is the determinism
// contract extended to the device dimension: any workers × boards
// combination must produce identical values.
func TestDeviceDeterministicAcrossWorkersAndCapacity(t *testing.T) {
	const n = 24
	var want []int
	for _, workers := range []int{1, 4} {
		for _, capacity := range []int{1, 2, 3} {
			var holders, max atomic.Int32
			p := NewPool(PoolConfig{Workers: workers, FPGAs: capacity})
			results, _, err := RunClassedOn(context.Background(), p, deviceJobs(n, &holders, &max), nil, false, nil)
			p.Close()
			if err != nil {
				t.Fatalf("workers=%d fpgas=%d: %v", workers, capacity, err)
			}
			got, err := Values(results)
			if err != nil {
				t.Fatalf("workers=%d fpgas=%d: %v", workers, capacity, err)
			}
			if want == nil {
				want = got
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d fpgas=%d: result[%d] = %d, want %d",
						workers, capacity, i, got[i], want[i])
				}
			}
		}
	}
}

func TestHoldDeviceWithoutDeviceIsFree(t *testing.T) {
	ran := false
	if err := HoldDevice(context.Background(), func() { ran = true }); err != nil || !ran {
		t.Fatalf("device-less hold: ran=%v, err=%v", ran, err)
	}

	results, st, err := runFresh(context.Background(), 1,
		[]Job[int]{func(ctx context.Context) (int, error) {
			v := 0
			if err := HoldDevice(ctx, func() { v = 42 }); err != nil {
				return 0, err
			}
			return v, nil
		}}, false, nil)
	if err != nil || results[0].Err != nil || results[0].Value != 42 {
		t.Fatalf("device-less batch: %+v, %v", results, err)
	}
	if st.FPGAs != 0 || st.DeviceWait != 0 || results[0].DeviceWait != 0 {
		t.Fatalf("device-less batch recorded device stats: %+v", st)
	}
}

// holdOnGoroutine holds one board of ctx's device from a new goroutine,
// inside fn, and returns once the board is held. The returned letGo ends
// the hold and reports the hold's error.
func holdOnGoroutine(t *testing.T, ctx context.Context) (letGo func() error) {
	t.Helper()
	held, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- HoldDevice(ctx, func() {
			close(held)
			<-release
		})
	}()
	select {
	case <-held:
	case err := <-done:
		t.Fatalf("hold failed: %v", err)
	}
	return func() error {
		close(release)
		return <-done
	}
}

func TestHoldDeviceHonorsCancel(t *testing.T) {
	dev := newDevice(1, 0, sched.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = withDevice(ctx, dev)

	letGo := holdOnGoroutine(t, ctx)

	ran := false
	waitErr := make(chan error, 1)
	go func() {
		waitErr <- HoldDevice(ctx, func() { ran = true })
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked hold returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("a hold canceled while queued ran its fn")
	}
	// Stats for the successful hold land when its fn returns.
	if err := letGo(); err != nil {
		t.Fatal(err)
	}
	// The aborted wait is real contention and must stay on the books.
	ds := dev.Stats()
	if ds.Wait <= 0 || ds.Contended == 0 {
		t.Fatalf("canceled wait vanished from stats: %+v", ds)
	}
	if ds.Acquires != 1 {
		t.Fatalf("acquires = %d, want 1 (the canceled attempt never got a token)", ds.Acquires)
	}
}

// TestHoldDeviceCanceledDuringReconfig cancels a hold while its board is
// being reprogrammed: fn never runs, the partial programming is booked as
// one acquire and one reconfiguration, and the board is invalidated — the
// same job's next hold must reprogram it again.
func TestHoldDeviceCanceledDuringReconfig(t *testing.T) {
	const cost = 50 * time.Millisecond
	dev := newDevice(1, cost, sched.Config{})
	classed := func(ctx context.Context) context.Context {
		return withClass(withDevice(ctx, dev), sched.Class{Job: "a"})
	}
	ctx, cancel := context.WithCancel(classed(context.Background()))
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	ran := false
	if err := HoldDevice(ctx, func() { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("hold returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("a hold canceled during reprogramming ran its fn")
	}
	ds := dev.Stats()
	if ds.Acquires != 1 || ds.Reconfigs != 1 {
		t.Fatalf("acquires = %d, reconfigs = %d, want 1 and 1", ds.Acquires, ds.Reconfigs)
	}
	if ds.ReconfigTime <= 0 || ds.ReconfigTime >= cost {
		t.Fatalf("reconfig time %v, want the partial programming in (0, %v)", ds.ReconfigTime, cost)
	}
	if ds.Hold < ds.ReconfigTime {
		t.Fatalf("hold %v < reconfig time %v (programming keeps the board busy)", ds.Hold, ds.ReconfigTime)
	}
	if err := HoldDevice(classed(context.Background()), func() {}); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Reconfigs; got != 2 {
		t.Fatalf("reconfigs = %d, want 2: the aborted programming must leave the board unconfigured", got)
	}
}

// TestHoldDeviceReleasesOnPanic pins release by construction: fn's panic
// propagates, the hold stays on the books, and the board is free at once.
func TestHoldDeviceReleasesOnPanic(t *testing.T) {
	dev := newDevice(1, 0, sched.Config{})
	ctx := withDevice(context.Background(), dev)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want fn's panic", r)
			}
		}()
		_ = HoldDevice(ctx, func() { panic("boom") })
	}()
	if got := dev.Stats().Acquires; got != 1 {
		t.Fatalf("acquires = %d, want 1", got)
	}
	// A free board is granted even on a canceled context; a held one is not.
	g, err := dev.sem.Acquire(canceledCtx(), sched.Class{})
	if err != nil {
		t.Fatal("board still held after fn panicked")
	}
	dev.sem.Release(g.Board, sched.Class{})
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
