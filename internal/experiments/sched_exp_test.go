package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/batch"
)

// TestSchedExperimentPriorityBeatsBulk pins the acceptance criterion on a
// forced single worker: with every job admitted at once and the priority
// scheduler draining the queue, the urgent class's p99 queue wait lands
// strictly below the bulk class's (bulk was submitted first — the
// adversarial order), and every class's table columns stay deterministic.
func TestSchedExperimentPriorityBeatsBulk(t *testing.T) {
	pool := batch.NewPool(batch.PoolConfig{Workers: 1, FPGAs: 1})
	defer pool.Close()
	opt := Options{Scale: 0.008, Designs: []string{"fft_a_md2"}, Pool: pool}
	pts, err := Sched(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d classes, want 3", len(pts))
	}
	byLabel := map[string]SchedPoint{}
	for _, p := range pts {
		byLabel[p.Label] = p
		if p.Jobs != 3 || p.Legal != 3 {
			t.Fatalf("class %s: %d jobs, %d legal (determinism broken)", p.Label, p.Jobs, p.Legal)
		}
	}
	urgent, bulk := byLabel["urgent"], byLabel["bulk"]
	if urgent.Priority <= bulk.Priority {
		t.Fatalf("class ladder inverted: %+v", pts)
	}
	if urgent.P99Wait >= bulk.P99Wait {
		t.Fatalf("urgent p99 wait %v not strictly below bulk p99 %v under priority scheduling",
			urgent.P99Wait, bulk.P99Wait)
	}
}

// TestSchedExperimentTableDeterministic pins the stdout contract: the
// rendered columns are identical across pools and schedules.
func TestSchedExperimentTableDeterministic(t *testing.T) {
	var want []SchedPoint
	for _, workers := range []int{1, 4} {
		pts, err := Sched(withPool(t, Options{Scale: 0.008, Designs: []string{"fft_a_md2"}}, workers, 0), 2)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = pts
			continue
		}
		for i := range pts {
			if pts[i].Label != want[i].Label || pts[i].Jobs != want[i].Jobs ||
				pts[i].Legal != want[i].Legal || pts[i].Priority != want[i].Priority {
				t.Fatalf("workers=%d: deterministic columns moved: %+v vs %+v",
					workers, pts[i], want[i])
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20} // unsorted on purpose
	if got := percentile(ds, 50); got != 20 {
		t.Fatalf("p50 = %v, want 20", got)
	}
	if got := percentile(ds, 99); got != 40 {
		t.Fatalf("p99 = %v, want the top rank of a small sample", got)
	}
	if got := percentile(ds, 100); got != 40 {
		t.Fatalf("p100 = %v, want max", got)
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty sample must yield 0")
	}
	if ds[0] != 40 {
		t.Fatal("percentile mutated its input")
	}
}

// TestPriorityReachesEveryDriverJob: Options.Priority sets the scheduling
// class of every job a driver queues, band jobs included. Each driver runs
// with priority 7 on a one-worker pool whose worker is held busy, so its
// jobs wait in the queue, where their levels can be read.
func TestPriorityReachesEveryDriverJob(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Options) error
	}{
		{"table1", func(o Options) error { _, err := Table1(o); return err }},
		{"sharded", func(o Options) error { _, err := Sharded(o, 2, 2); return err }},
		{"eco", func(o Options) error { _, err := Eco(o, 2, 1, 1); return err }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			pool := batch.NewPool(batch.PoolConfig{Workers: 1, FPGAs: 1})
			defer pool.Close()
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			unblock := func() { once.Do(func() { close(release) }) }
			defer unblock() // before Close, which waits for the batches
			blocker := []batch.Job[int]{func(context.Context) (int, error) {
				close(started)
				<-release
				return 0, nil
			}}
			blocked := make(chan error, 1)
			go func() {
				_, _, err := batch.RunClassedOn(context.Background(), pool, blocker, nil, false, nil)
				blocked <- err
			}()
			<-started

			o := Options{Scale: 0.008, Designs: []string{"fft_a_md2"}, Pool: pool, Priority: 7}
			done := make(chan error, 1)
			go func() { done <- d.run(o) }()
			deadline := time.Now().Add(10 * time.Second)
			for pool.Depths().Waiting == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no driver job ever queued")
				}
				time.Sleep(time.Millisecond)
			}
			depths := pool.Depths()
			unblock()
			if err := <-blocked; err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := depths.WaitingByPriority[7]; n != depths.Waiting {
				t.Fatalf("%d of %d queued jobs at priority 7: %v", n, depths.Waiting, depths.WaitingByPriority)
			}
		})
	}
}
