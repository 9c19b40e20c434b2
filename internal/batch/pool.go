package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/flex-eda/flex/internal/sched"
)

// ErrOverloaded rejects a batch whose jobs do not fit the pool's admission
// bound: queued plus running jobs would exceed PoolConfig.QueueDepth. The
// batch is rejected atomically, before any of its jobs start.
var ErrOverloaded = errors.New("batch: pool overloaded (queue full)")

// ErrPoolClosed rejects batches submitted after Close.
var ErrPoolClosed = errors.New("batch: pool closed")

// ErrClientOverloaded rejects a batch whose jobs would push one client past
// the pool's per-client admission bound (PoolConfig.ClientDepth). Match it
// with errors.Is; the concrete error is a *ClientOverloadedError naming the
// client.
var ErrClientOverloaded = errors.New("batch: client queue full")

// ClientOverloadedError is the concrete per-client admission rejection: the
// named client's queued+running jobs would exceed the pool's ClientDepth.
type ClientOverloadedError struct {
	// Client is the tenant whose admission bound the batch tripped.
	Client string
}

// Error implements error.
func (e *ClientOverloadedError) Error() string {
	return fmt.Sprintf("batch: client %q queue full", e.Client)
}

// Is matches ErrClientOverloaded.
func (e *ClientOverloadedError) Is(target error) bool { return target == ErrClientOverloaded }

// PoolConfig sizes a worker pool.
type PoolConfig struct {
	// Workers is the number of persistent worker goroutines (<= 0 =
	// GOMAXPROCS). It bounds concurrently running jobs across every batch
	// sharing the pool.
	Workers int
	// FPGAs is the modeled accelerator board count shared by every batch on
	// the pool (0 = 1 board, the paper's single-card host; negative =
	// unlimited, no device modeling).
	FPGAs int
	// QueueDepth bounds admitted jobs (queued + running, across batches);
	// 0 = unbounded. A batch larger than the whole depth can never be
	// admitted and is always rejected with ErrOverloaded.
	QueueDepth int
	// Policy orders waiting jobs everywhere they queue — for a worker and
	// for a board. nil = sched.Default(): effective priority (base +
	// aging) descending, earliest deadline first within a level, fair
	// share across clients, then arrival order.
	Policy sched.Policy
	// ClientQuota caps concurrently running jobs per client (0 =
	// unlimited). Jobs over quota stay queued; they are deferred, never
	// rejected.
	ClientQuota int
	// ClientDepth bounds one client's admitted jobs (queued + running;
	// 0 = unbounded). A batch that would push any of its clients past the
	// bound is rejected atomically with a *ClientOverloadedError.
	ClientDepth int
	// ReconfigCost is the modeled board reconfiguration delay charged when
	// consecutive holders of one board come from different jobs (0 = free;
	// reconfigurations are counted either way).
	ReconfigCost time.Duration
}

// Pool is a long-lived bounded worker pool shared by many batch runs — the
// persistent heart of a legalization service. It keeps its workers (and the
// modeled accelerator boards) alive across batches, so cross-request state —
// device contention history, admission control, the scheduling queue — has
// somewhere to live.
//
// Workers feed from a scheduled task queue (internal/sched) rather than a
// FIFO channel: jobs carry a sched.Class and the queue dequeues by policy —
// priority, deadline, aging, per-client quota and fairness. Concurrency-
// safe: batches from many goroutines interleave on the same workers.
// Determinism is untouched — jobs are pure functions of their inputs, so
// sharing workers and boards, or reordering the queue, moves only
// wall-clock and wait statistics, never results.
type Pool struct {
	workers int
	device  *Device
	depth   int
	cdepth  int
	queue   *sched.TaskQueue

	wg sync.WaitGroup // worker goroutines

	mu               sync.Mutex
	admitted         int            // jobs admitted and not yet delivered
	admittedByClient map[string]int // same, per client
	batches          sync.WaitGroup // admitted batches still draining
	closed           bool
}

// NewPool starts the pool's workers. Callers must Close it to stop them.
func NewPool(cfg PoolConfig) *Pool {
	// One derivation of the scheduling config: the worker queue and the
	// board semaphore must never see different policies or quotas.
	scfg := sched.Config{Policy: cfg.Policy, Quota: cfg.ClientQuota}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var device *Device
	if cfg.FPGAs >= 0 {
		device = newDevice(cfg.FPGAs, cfg.ReconfigCost, scfg)
	}
	p := &Pool{
		workers:          workers,
		device:           device,
		depth:            cfg.QueueDepth,
		cdepth:           cfg.ClientDepth,
		queue:            sched.NewTaskQueue(scfg),
		admittedByClient: make(map[string]int),
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				run, ok := p.queue.Pop()
				if !ok {
					return
				}
				run()
			}
		}()
	}
	return p
}

// Workers returns the persistent worker count.
func (p *Pool) Workers() int { return p.workers }

// Device returns the pool's shared accelerator board model (nil when the
// pool models unlimited boards).
func (p *Pool) Device() *Device { return p.device }

// Depths snapshots the scheduling queue's occupancy: waiting jobs by base
// priority and by client, plus running jobs by client — the service's
// per-priority queue-depth statistics.
func (p *Pool) Depths() sched.Depths { return p.queue.Depths() }

// Admitted returns the number of jobs admitted and not yet delivered right
// now — queued plus running, summed over every in-flight batch. Against
// PoolConfig.QueueDepth it measures current queue occupancy.
func (p *Pool) Admitted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.admitted
}

// AdmittedByClient returns the named client's admitted-and-undelivered job
// count — the occupancy the per-client admission bound (ClientDepth) is
// measured against, and the honest basis of a per-client Retry-After.
func (p *Pool) AdmittedByClient(client string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.admittedByClient[client]
}

// admit reserves admission slots for every class, or rejects the whole
// batch: over the global depth with ErrOverloaded, over one client's depth
// with a *ClientOverloadedError naming the client.
func (p *Pool) admit(classes []sched.Class) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.depth > 0 && p.admitted+len(classes) > p.depth {
		return ErrOverloaded
	}
	if p.cdepth > 0 {
		perClient := make(map[string]int)
		for _, c := range classes {
			perClient[c.Client]++
		}
		for client, n := range perClient {
			if p.admittedByClient[client]+n > p.cdepth {
				return &ClientOverloadedError{Client: client}
			}
		}
	}
	p.admitted += len(classes)
	for _, c := range classes {
		p.admittedByClient[c.Client]++
	}
	p.batches.Add(1)
	return nil
}

// jobDelivered frees one admission slot once a job's result reached the
// batch's consumer — queue depth bounds the whole pipeline, including
// results not yet drained.
func (p *Pool) jobDelivered(client string) {
	p.mu.Lock()
	p.admitted--
	p.admittedByClient[client]--
	if p.admittedByClient[client] <= 0 {
		delete(p.admittedByClient, client)
	}
	p.mu.Unlock()
}

// batchDone marks one admitted batch fully drained.
func (p *Pool) batchDone() { p.batches.Done() }

// Close stops accepting batches, waits for admitted batches to drain, then
// stops the workers. It is idempotent and safe to call concurrently with
// running batches — but a batch whose result channel is abandoned
// un-drained blocks Close forever, the same leak the channel contract
// already forbids.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.batches.Wait()
	p.queue.Close()
	p.wg.Wait()
}

// effectiveWorkers is the concurrency a batch of n jobs can actually use on
// a pool of w workers — the Stats.Workers figure.
func effectiveWorkers(w, n int) int {
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// StreamClassedOn executes jobs on the shared pool, one sched.Class per
// job, and sends every job's Result on the returned channel in completion
// order (use Result.Index to reorder). Exactly len(jobs) results are sent —
// skipped jobs carry ErrSkipped — and the channel is then closed. Callers
// must drain the channel (cancel ctx to stop early); abandoning it wedges
// the batch's admission slots and blocks Pool.Close.
//
// The pool's scheduler orders the jobs by class everywhere they wait, and a
// job whose deadline has passed when a worker picks it up fails fast with
// sched.ErrDeadlineExceeded without running. classes must be nil (all zero)
// or len(jobs) long. Admission is atomic: either every job fits the pool's
// queue depth and per-client bounds and the batch runs, or nothing starts
// and StreamClassedOn returns ErrOverloaded, a *ClientOverloadedError
// naming the client, or ErrPoolClosed after Close.
func StreamClassedOn[T any](ctx context.Context, p *Pool, jobs []Job[T], classes []sched.Class, failFast bool) (<-chan Result[T], error) {
	if classes != nil && len(classes) != len(jobs) {
		return nil, fmt.Errorf("batch: %d classes for %d jobs", len(classes), len(jobs))
	}
	cls := func(i int) sched.Class {
		if classes == nil {
			return sched.Class{}
		}
		return classes[i]
	}
	admitClasses := classes
	if admitClasses == nil {
		admitClasses = make([]sched.Class, len(jobs))
	}
	if err := p.admit(admitClasses); err != nil {
		return nil, err
	}
	out := make(chan Result[T])
	go func() {
		defer close(out)
		defer p.batchDone()
		if len(jobs) == 0 {
			return
		}
		bctx, cancel := context.WithCancel(ctx)
		defer cancel()
		runCtx := bctx
		if p.device != nil {
			runCtx = withDevice(bctx, p.device)
		}

		// Buffered to len(jobs): a finished worker never blocks on a slow
		// batch consumer, so one stalled stream cannot wedge the shared
		// pool's workers.
		results := make(chan Result[T], len(jobs))
		tickets := make([]*sched.Ticket, len(jobs))
		for i := range jobs {
			i := i
			class := cls(i)
			tickets[i] = p.queue.Push(class, func(queued time.Duration) {
				r := Result[T]{Index: i, SchedWait: queued}
				switch {
				case bctx.Err() != nil:
					r.Err = ErrSkipped
				//flexvet:walltime deadlines are wall-clock by contract; expiry moves only errors, never output
				case class.Expired(time.Now()):
					// The deadline passed while the job queued: fail fast
					// without running the engine.
					r.Err = sched.ErrDeadlineExceeded
					if failFast {
						cancel()
					}
				default:
					jctx := withClass(runCtx, class)
					var usage *deviceUsage
					if p.device != nil {
						usage = &deviceUsage{}
						jctx = context.WithValue(jctx, usageKey{}, usage)
					}
					start := time.Now() //flexvet:walltime per-job wall for Result.Wall, reported on stderr only
					jctx = withSchedInfo(jctx, queued, start)
					v, err := jobs[i](jctx)
					if err != nil && failFast {
						cancel()
					}
					//flexvet:walltime Result.Wall is stderr/stats telemetry, excluded from BENCH files
					r.Value, r.Err, r.Wall = v, err, time.Since(start)
					if err != nil && bctx.Err() != nil &&
						(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
						r.aborted = true
					}
					if usage != nil {
						r.DeviceWait, r.DeviceHold = usage.wait, usage.hold
						r.DeviceReconfigs = usage.reconfigs
						r.deviceAcquires, r.deviceContended = usage.acquires, usage.contended
						r.deviceReconfigTime = usage.reconfigTime
					}
				}
				results <- r
			})
		}

		// Collect every job's result. On cancellation, still-queued tasks
		// are dropped from the scheduler at once and skipped here — a
		// canceled batch must not wait for workers to churn through other
		// tenants' backlog just to emit its skips.
		deliver := func(r Result[T]) {
			out <- r
			p.jobDelivered(cls(r.Index).Client)
		}
		remaining := len(jobs)
		for remaining > 0 {
			select {
			case r := <-results:
				deliver(r)
				remaining--
				continue
			case <-bctx.Done():
			}
			for _, i := range p.queue.Drop(tickets) {
				deliver(Result[T]{Index: i, Err: ErrSkipped})
				remaining--
			}
			// Whatever already reached a worker delivers the normal way.
			for remaining > 0 {
				deliver(<-results)
				remaining--
			}
		}
	}()
	return out, nil
}

// RunClassedOn executes jobs on the shared pool — the blocking form of
// StreamClassedOn, with its scheduling, quota, and deadline semantics — and
// returns one Result per job in submission order plus per-batch stats.
// Per-job errors live in the results; the returned error is admission
// rejection (ErrOverloaded, ErrPoolClosed — then results and stats are
// zero), a batch cut short by ctx, or the first error under failFast.
// onResult (when non-nil) observes each result in completion order. Device
// statistics are summed from this batch's own jobs, so they stay exact per
// batch even when concurrent batches share the pool.
func RunClassedOn[T any](ctx context.Context, p *Pool, jobs []Job[T], classes []sched.Class, failFast bool, onResult func(Result[T])) ([]Result[T], Stats, error) {
	start := time.Now() //flexvet:walltime batch wall for Stats.Wall, reported on stderr only
	ch, err := StreamClassedOn(ctx, p, jobs, classes, failFast)
	if err != nil {
		return nil, Stats{}, err
	}
	results := make([]Result[T], len(jobs))
	for r := range ch {
		results[r.Index] = r
		if onResult != nil {
			onResult(r)
		}
	}
	//flexvet:walltime Stats.Wall is stderr/stats telemetry, excluded from BENCH files
	st := Stats{Jobs: len(jobs), Workers: effectiveWorkers(p.workers, len(jobs)), Wall: time.Since(start)}
	var firstErr, firstCancel error
	for i := range results {
		r := &results[i]
		st.WorkWall += r.Wall
		st.SchedWait += r.SchedWait
		st.DeviceWait += r.DeviceWait
		st.DeviceHold += r.DeviceHold
		st.DeviceAcquires += r.deviceAcquires
		st.DeviceContended += r.deviceContended
		st.DeviceReconfigs += r.DeviceReconfigs
		st.DeviceReconfigTime += r.deviceReconfigTime
		switch {
		case errors.Is(r.Err, ErrSkipped):
			st.Skipped++
		case r.Err != nil:
			st.Errors++
			if r.aborted {
				if firstCancel == nil {
					firstCancel = r.Err
				}
			} else if firstErr == nil {
				// Prefer the first root-cause error over a cancellation
				// echoed by an in-flight victim job.
				firstErr = r.Err
			}
		}
	}
	if p.device != nil {
		st.FPGAs = p.device.Capacity()
	}
	// A context error fails the batch whenever it actually cut the run
	// short: jobs were skipped, or in-flight jobs aborted with the
	// cancellation as their own error. A deadline firing after the last
	// job completed — even one where some job failed with its own
	// sub-context's timeout — leaves a full, perfectly good result set.
	if err := ctx.Err(); err != nil && (st.Skipped > 0 || firstCancel != nil) {
		return results, st, err
	}
	if firstErr == nil {
		// Only batch-abort cancellation errors remain: under FailFast
		// the batch still tripped and must not report success.
		firstErr = firstCancel
	}
	if failFast && firstErr != nil {
		return results, st, firstErr
	}
	return results, st, nil
}
