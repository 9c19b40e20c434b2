package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/engine"
)

// TestSchedExperimentPriorityBeatsBulk pins the acceptance criterion on a
// forced single worker: with every job admitted at once and the priority
// scheduler draining the queue, the urgent class's p99 queue wait lands
// strictly below the bulk class's (bulk was submitted first — the
// adversarial order), and every class's table columns stay deterministic.
func TestSchedExperimentPriorityBeatsBulk(t *testing.T) {
	opt := withPool(t, Options{Scale: 0.008, Designs: []string{"fft_a_md2"}}, 1, 1)
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
// rendered columns are identical across services and schedules.
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
// class of every job a driver submits, band jobs included. Each driver runs
// with priority 7 on a one-worker service whose worker is held by a
// CPU-only job whose engine observer blocks, so the driver's jobs wait in
// the queue, where their levels can be read. Eco runs its base and edits on
// a service of its own; its full re-runs are the jobs that wait here.
func TestPriorityReachesEveryDriverJob(t *testing.T) {
	blocker, err := flex.GenerateCustom(40, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
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
			svc := flex.NewService(flex.WithWorkers(1), flex.WithFPGAs(1))
			defer svc.Close()
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			unblock := func() { once.Do(func() { close(release) }) }
			defer unblock() // before Close, which waits for the batches
			hold := engine.WithObserver(context.Background(), func(*engine.Result) {
				close(started)
				<-release
			})
			blocked := make(chan error, 1)
			go func() {
				_, err := svc.Submit(hold, []flex.BatchJob{{Layout: blocker, Engine: flex.EngineMGL}}, flex.SubmitOptions{})
				blocked <- err
			}()
			<-started

			o := Options{Scale: 0.008, Designs: []string{"fft_a_md2"}, Service: svc, Priority: 7}
			done := make(chan error, 1)
			go func() { done <- d.run(o) }()
			// QueuedJobs rises at admission, before the jobs are pushed:
			// wait for the first pushed job instead.
			deadline := time.Now().Add(10 * time.Second)
			var queued map[int]int
			for len(queued) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no driver job ever queued")
				}
				time.Sleep(time.Millisecond)
				queued = svc.Stats().QueuedByPriority
			}
			unblock()
			if err := <-blocked; err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if len(queued) != 1 || queued[7] == 0 {
				t.Fatalf("queued jobs by priority %v, want every one at 7", queued)
			}
		})
	}
}
