package sched

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock so aging tests are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func pushTagged(q *TaskQueue, class Class, tag string, order *[]string, mu *sync.Mutex) {
	q.Push(class, func(time.Duration) {
		mu.Lock()
		*order = append(*order, tag)
		mu.Unlock()
	})
}

func TestPriorityOrderingEDFAndSeq(t *testing.T) {
	clk := newFakeClock()
	q := NewTaskQueue(Config{Now: clk.Now})
	var mu sync.Mutex
	var order []string
	dl := clk.Now().Add(time.Hour)
	pushTagged(q, Class{Priority: 0}, "bulk", &order, &mu)
	pushTagged(q, Class{Priority: 5, Deadline: dl.Add(time.Minute)}, "late-deadline", &order, &mu)
	pushTagged(q, Class{Priority: 5, Deadline: dl}, "early-deadline", &order, &mu)
	pushTagged(q, Class{Priority: 5}, "no-deadline", &order, &mu)
	pushTagged(q, Class{Priority: 9}, "urgent", &order, &mu)

	for i := 0; i < 5; i++ {
		run, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		run()
	}
	want := []string{"urgent", "early-deadline", "late-deadline", "no-deadline", "bulk"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOIgnoresPriority(t *testing.T) {
	q := NewTaskQueue(Config{Policy: FIFO()})
	var mu sync.Mutex
	var order []string
	pushTagged(q, Class{Priority: 0}, "first", &order, &mu)
	pushTagged(q, Class{Priority: 9}, "second", &order, &mu)
	for i := 0; i < 2; i++ {
		run, _ := q.Pop()
		run()
	}
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want arrival order", order)
	}
}

// TestAgingBoundsStarvation pins the starvation bound: a priority-0 job
// enqueued first outranks fresh priority-5 arrivals once it has waited
// 5 aging steps — so it runs after a bounded number of higher-priority
// jobs, never indefinitely many.
func TestAgingBoundsStarvation(t *testing.T) {
	clk := newFakeClock()
	step := time.Second
	q := NewTaskQueue(Config{
		Policy: priorityPolicy{ageStep: step},
		Now:    clk.Now,
	})
	var mu sync.Mutex
	var order []string
	pushTagged(q, Class{Priority: 0}, "old-bulk", &order, &mu)

	// A continuous stream of fresh priority-5 jobs. Before the bound the
	// fresh job wins; at 5 steps waited, effective priorities tie (0+5 vs
	// 5+0) and the older Seq breaks the tie for the bulk job.
	for i := 0; i < 5; i++ {
		pushTagged(q, Class{Priority: 5}, "fresh", &order, &mu)
		run, _ := q.Pop()
		run()
		clk.Advance(step)
	}
	pushTagged(q, Class{Priority: 5}, "fresh", &order, &mu)
	run, _ := q.Pop()
	run()

	for i := 0; i < 5; i++ {
		if order[i] != "fresh" {
			t.Fatalf("pop %d = %q, want fresh (bulk must wait out the aging bound)", i, order[i])
		}
	}
	if order[5] != "old-bulk" {
		t.Fatalf("after 5 aging steps the bulk job still starved: %v", order)
	}
}

// TestAgingSaturates: the aged priority of a job at math.MaxInt saturates
// instead of wrapping, so after waiting it still outranks a fresh
// priority-0 job.
func TestAgingSaturates(t *testing.T) {
	now := time.Unix(1000, 0)
	p := Default()
	top := Waiter{Class: Class{Priority: math.MaxInt}, Seq: 1, Since: now.Add(-time.Second)}
	fresh := Waiter{Class: Class{Priority: 0}, Seq: 2, Since: now}
	if !p.Less(top, fresh, now) || p.Less(fresh, top, now) {
		t.Fatal("a priority-MaxInt job that waited 1 s ranks after a fresh priority-0 job")
	}
}

func TestAgingDisabledStarves(t *testing.T) {
	clk := newFakeClock()
	q := NewTaskQueue(Config{
		Policy: priorityPolicy{}, // aging disabled
		Now:    clk.Now,
	})
	var mu sync.Mutex
	var order []string
	pushTagged(q, Class{Priority: 0}, "bulk", &order, &mu)
	clk.Advance(time.Hour)
	pushTagged(q, Class{Priority: 1}, "fresh", &order, &mu)
	run, _ := q.Pop()
	run()
	if order[0] != "fresh" {
		t.Fatalf("aging disabled, yet waiting boosted the bulk job: %v", order)
	}
}

// TestQuotaCapsClientInFlight pins the quota contract: with quota 1, a
// client's second task stays queued until its first completes even with
// idle consumers, while other clients' work proceeds.
func TestQuotaCapsClientInFlight(t *testing.T) {
	q := NewTaskQueue(Config{Quota: 1})
	release := make(chan struct{})
	var aSecond atomic.Bool
	q.Push(Class{Client: "a"}, func(time.Duration) { <-release })
	q.Push(Class{Client: "a"}, func(time.Duration) { aSecond.Store(true) })
	q.Push(Class{Client: "b"}, func(time.Duration) {})

	run1, _ := q.Pop() // a's first task; holds a's quota slot
	done1 := make(chan struct{})
	go func() { run1(); close(done1) }()

	// The next eligible task must be b's — a is at quota.
	run2, _ := q.Pop()
	run2()
	if aSecond.Load() {
		t.Fatal("client a's second task ran while its first held the quota slot")
	}

	got := make(chan struct{})
	go func() {
		run3, _ := q.Pop() // blocks until a's slot frees
		run3()
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("quota-blocked task ran before the slot freed")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-done1
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("freed quota slot never unblocked the waiting task")
	}
	if !aSecond.Load() {
		t.Fatal("client a's second task never ran")
	}
}

// TestWeightedFairShareTieBreak pins fairness: at equal priority, the
// client with fewer running jobs is granted first.
func TestWeightedFairShareTieBreak(t *testing.T) {
	q := NewTaskQueue(Config{})
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	// Client a holds one running slot...
	q.Push(Class{Client: "a"}, func(time.Duration) { <-release })
	runA, _ := q.Pop()
	doneA := make(chan struct{})
	go func() { runA(); close(doneA) }()

	// ...so at equal priority, idle client b outranks a's next task even
	// though a enqueued first.
	pushTagged(q, Class{Client: "a"}, "a2", &order, &mu)
	pushTagged(q, Class{Client: "b"}, "b1", &order, &mu)
	run, _ := q.Pop()
	run()
	if order[0] != "b1" {
		t.Fatalf("fair share ignored: %v ran before b1", order)
	}
	close(release)
	<-doneA
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewTaskQueue(Config{})
	var ran atomic.Int32
	q.Push(Class{}, func(time.Duration) { ran.Add(1) })
	q.Push(Class{}, func(time.Duration) { ran.Add(1) })
	q.Close()
	for {
		run, ok := q.Pop()
		if !ok {
			break
		}
		run()
	}
	if ran.Load() != 2 {
		t.Fatalf("drained %d tasks, want 2", ran.Load())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop returned a task after close and drain")
	}
}

func TestDepthsSnapshot(t *testing.T) {
	q := NewTaskQueue(Config{})
	q.Push(Class{Priority: 2, Client: "a"}, func(time.Duration) {})
	q.Push(Class{Priority: 2, Client: "b"}, func(time.Duration) {})
	q.Push(Class{Priority: 0, Client: "a"}, func(time.Duration) {})
	d := q.Depths()
	if d.Waiting != 3 || d.WaitingByPriority[2] != 2 || d.WaitingByPriority[0] != 1 {
		t.Fatalf("depths %+v", d)
	}
	if d.WaitingByClient["a"] != 2 || d.WaitingByClient["b"] != 1 {
		t.Fatalf("client depths %+v", d)
	}
}

func TestSemaphoreAffinityAndReconfig(t *testing.T) {
	s := NewSemaphore(2, Config{})
	ctx := context.Background()

	// First use always reconfigures (bitstream load).
	g1, err := s.Acquire(ctx, Class{Job: "j1"})
	if err != nil || !g1.Reconfig {
		t.Fatalf("first acquire: %+v, %v", g1, err)
	}
	s.Release(g1.Board, Class{Job: "j1"})

	// Same job again: affinity picks the warm board, no reconfig.
	g2, err := s.Acquire(ctx, Class{Job: "j1"})
	if err != nil || g2.Reconfig || g2.Board != g1.Board {
		t.Fatalf("warm acquire: %+v, %v (want board %d, no reconfig)", g2, err, g1.Board)
	}

	// A different job concurrently gets the other board and reconfigures.
	g3, err := s.Acquire(ctx, Class{Job: "j2"})
	if err != nil || !g3.Reconfig || g3.Board == g2.Board {
		t.Fatalf("cold acquire: %+v, %v", g3, err)
	}
	s.Release(g2.Board, Class{Job: "j1"})
	s.Release(g3.Board, Class{Job: "j2"})

	// An unidentified job always reconfigures.
	g4, err := s.Acquire(ctx, Class{})
	if err != nil || !g4.Reconfig {
		t.Fatalf("anonymous acquire: %+v, %v", g4, err)
	}
	s.Release(g4.Board, Class{})
}

func TestSemaphoreGrantsByPriority(t *testing.T) {
	s := NewSemaphore(1, Config{})
	ctx := context.Background()
	g, err := s.Acquire(ctx, Class{Job: "hold"})
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		tag string
		g   Grant
	}
	got := make(chan res, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	acquire := func(tag string, class Class) {
		defer wg.Done()
		<-start
		gr, err := s.Acquire(ctx, class)
		if err != nil {
			t.Errorf("%s: %v", tag, err)
			return
		}
		got <- res{tag, gr}
		s.Release(gr.Board, class)
	}
	wg.Add(2)
	go acquire("low", Class{Priority: 0, Job: "low"})
	go acquire("high", Class{Priority: 9, Job: "high"})
	close(start)
	time.Sleep(20 * time.Millisecond) // both queued behind the held board
	s.Release(g.Board, Class{Job: "hold"})
	wg.Wait()
	close(got)
	first := (<-got).tag
	if first != "high" {
		t.Fatalf("board went to %q first, want the high-priority waiter", first)
	}
}

func TestSemaphoreCancelWhileWaiting(t *testing.T) {
	s := NewSemaphore(1, Config{})
	g, err := s.Acquire(context.Background(), Class{Job: "hold"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Class{Job: "waiter"})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	// The canceled waiter must be gone: releasing grants nobody and the
	// board is immediately reusable.
	s.Release(g.Board, Class{Job: "hold"})
	g2, err := s.Acquire(context.Background(), Class{Job: "hold"})
	if err != nil || g2.Reconfig {
		t.Fatalf("board not reusable after canceled waiter: %+v, %v", g2, err)
	}
	s.Release(g2.Board, Class{Job: "hold"})
}

func TestSemaphoreInvalidateForcesReconfig(t *testing.T) {
	s := NewSemaphore(1, Config{})
	ctx := context.Background()
	g, err := s.Acquire(ctx, Class{Job: "j1"})
	if err != nil {
		t.Fatal(err)
	}
	// An aborted programming leaves no usable bitstream behind.
	s.Invalidate(g.Board)
	s.Release(g.Board, Class{Job: "j1"})
	g2, err := s.Acquire(ctx, Class{Job: "j1"})
	if err != nil || !g2.Reconfig {
		t.Fatalf("invalidated board granted warm: %+v, %v", g2, err)
	}
	s.Release(g2.Board, Class{Job: "j1"})
}

// TestQueueDropRemovesOnlyQueued pins the canceled-batch fast path: Drop
// removes still-queued tickets (reporting which) and leaves popped tasks
// alone.
func TestQueueDropRemovesOnlyQueued(t *testing.T) {
	q := NewTaskQueue(Config{})
	var ran atomic.Int32
	t0 := q.Push(Class{}, func(time.Duration) { ran.Add(1) })
	t1 := q.Push(Class{}, func(time.Duration) { ran.Add(1) })
	t2 := q.Push(Class{}, func(time.Duration) { ran.Add(1) })
	run, ok := q.Pop() // pops t0 (FIFO among equals)
	if !ok {
		t.Fatal("pop failed")
	}
	removed := q.Drop([]*Ticket{t0, t1, t2})
	if len(removed) != 2 || removed[0] != 1 || removed[1] != 2 {
		t.Fatalf("removed %v, want [1 2] (t0 was already popped)", removed)
	}
	run()
	if ran.Load() != 1 {
		t.Fatalf("ran %d tasks, want only the popped one", ran.Load())
	}
	if d := q.Depths(); d.Waiting != 0 {
		t.Fatalf("dropped tasks still queued: %+v", d)
	}
	if again := q.Drop([]*Ticket{t1, nil}); len(again) != 0 {
		t.Fatalf("second drop reported %v", again)
	}
}

func TestClassExpired(t *testing.T) {
	now := time.Unix(2000, 0)
	if (Class{}).Expired(now) {
		t.Fatal("zero deadline must never expire")
	}
	if !(Class{Deadline: now.Add(-time.Second)}).Expired(now) {
		t.Fatal("past deadline must expire")
	}
	if (Class{Deadline: now.Add(time.Second)}).Expired(now) {
		t.Fatal("future deadline must not expire")
	}
}
