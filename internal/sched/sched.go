// Package sched is the admission-side scheduler of the batch runner: it
// decides which waiting job runs next everywhere a job queues — for a
// worker goroutine in the pool, or for a modeled accelerator board in the
// device model. The rest of the system stays FIFO-free: batch.Pool feeds
// its workers from a TaskQueue and batch.Device hands out board tokens
// through a Semaphore, both ordered by a pluggable Policy.
//
// A job's demands travel in its Class: a priority level, an optional
// absolute deadline, a client (tenant) identity for quotas and fair
// sharing, and a configuration identity for the board-reconfiguration
// model. The default policy dequeues by effective priority — base priority
// plus an aging boost that grows while the job waits, so no class starves —
// breaking ties earliest-deadline-first, then by fair share across clients
// (fewest running jobs first), then by arrival order.
//
// Scheduling never changes what a job computes. Engines are pure functions
// of their inputs, so reordering the queue moves only wall-clock and wait
// statistics; for a fixed job set every policy yields byte-identical
// results.
//
// Observability rides the same boundary: the pool timestamps a job's queue
// push and pop (batch.SchedInfo), and internal/obs turns that pair into a
// sched-wait trace span and the flex_sched_queue_wait_seconds histogram.
// The policies themselves read the clock only for aging and deadlines, and
// tracing never influences dequeue order — enabling it cannot reorder a
// run, let alone change its bytes.
package sched

import (
	"errors"
	"math"
	"time"
)

// ErrDeadlineExceeded reports a job whose absolute deadline passed before
// the scheduler could start it: the job fails fast without running. It is
// re-exported as flex.ErrDeadlineExceeded.
var ErrDeadlineExceeded = errors.New("job deadline exceeded before start")

// Class describes one job's scheduling demands. The zero value is the
// neutral job: priority 0, no deadline, the anonymous client, no board
// configuration identity.
type Class struct {
	// Priority orders jobs: higher runs earlier. Levels are small integers
	// around 0 (negative = background); aging adds one effective level per
	// waited AgeStep, so any bounded priority gap closes in bounded time.
	Priority int
	// Deadline, when non-zero, is the job's absolute completion target.
	// Within one effective priority level the earliest deadline runs first,
	// and a job whose deadline has already passed when it is picked fails
	// fast with ErrDeadlineExceeded instead of running.
	Deadline time.Time
	// Client is the submitting tenant, for per-client quotas and fair
	// sharing. Empty is the shared anonymous client.
	Client string
	// Job identifies the board configuration (bitstream) the job needs on
	// an accelerator: consecutive holders of one board with equal Job skip
	// the modeled reconfiguration delay. Empty never matches — an
	// unidentified job always reconfigures.
	Job string
}

// Expired reports whether the class's deadline (if any) has passed at now.
func (c Class) Expired(now time.Time) bool {
	return !c.Deadline.IsZero() && now.After(c.Deadline)
}

// Waiter is the policy's view of one queued job.
type Waiter struct {
	// Class is the job's scheduling class.
	Class Class
	// Seq is the arrival sequence number (lower = earlier).
	Seq uint64
	// Since is the enqueue time, the base of the aging boost.
	Since time.Time
	// Load is the job's client's running job count, computed by the queue
	// at selection time. Policies use it to spread capacity across
	// tenants: at equal priority and deadline, the client with fewer
	// running jobs goes first.
	Load int
}

// Policy orders waiting jobs. Less reports whether a should be granted
// before b at time now; implementations must be a strict weak ordering for
// any fixed now.
type Policy interface {
	// Less reports whether a runs before b at time now.
	Less(a, b Waiter, now time.Time) bool
}

// DefaultAgeStep is the aging interval of the default priority policy: a
// waiting job gains one effective priority level per DefaultAgeStep waited,
// which bounds starvation — a priority-0 job outranks fresh priority-p
// arrivals after at most p × DefaultAgeStep in the queue.
const DefaultAgeStep = 500 * time.Millisecond

// maxAgeBoost caps the aging boost so pathological wait times cannot
// overflow the effective priority arithmetic.
const maxAgeBoost = 1 << 20

// priorityPolicy is EDF-within-priority with aging and fair-share
// tie-breaking. ageStep is the aging interval: one effective priority level
// gained per ageStep waited; 0 disables aging (strict priorities,
// starvation possible), which only tests ask for.
type priorityPolicy struct {
	ageStep time.Duration
}

// Default is the priority scheduler: effective priority (base + one level
// per DefaultAgeStep waited) descending, then earliest deadline first (no
// deadline sorts last), then lowest fair-share load, then arrival order.
func Default() Policy { return priorityPolicy{ageStep: DefaultAgeStep} }

// effective is the waiter's aged priority at now. It saturates at
// math.MaxInt: priorities are unbounded at every entry point (BatchJob,
// flexlg -priority, the fleet wire), and a wrapped sum would rank the
// highest-priority job last.
func (p priorityPolicy) effective(w Waiter, now time.Time) int {
	if p.ageStep <= 0 {
		return w.Class.Priority
	}
	waited := now.Sub(w.Since)
	if waited <= 0 {
		return w.Class.Priority
	}
	boost := int(waited / p.ageStep)
	if boost > maxAgeBoost {
		boost = maxAgeBoost
	}
	if w.Class.Priority > math.MaxInt-boost {
		return math.MaxInt
	}
	return w.Class.Priority + boost
}

// Less implements Policy.
func (p priorityPolicy) Less(a, b Waiter, now time.Time) bool {
	pa, pb := p.effective(a, now), p.effective(b, now)
	if pa != pb {
		return pa > pb
	}
	da, db := a.Class.Deadline, b.Class.Deadline
	switch {
	case !da.IsZero() && !db.IsZero():
		if !da.Equal(db) {
			return da.Before(db)
		}
	case !da.IsZero() || !db.IsZero():
		return !da.IsZero() // a real deadline beats none
	}
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.Seq < b.Seq
}

// fifoPolicy is strict arrival order.
type fifoPolicy struct{}

// FIFO builds the arrival-order scheduler — the pre-sched behaviour.
// Quotas still apply (enforcement is the queue's, not the policy's); only
// the ordering ignores priority, deadline and fairness.
func FIFO() Policy { return fifoPolicy{} }

// Less implements Policy.
func (fifoPolicy) Less(a, b Waiter, _ time.Time) bool { return a.Seq < b.Seq }

// Config tunes a scheduled queue (TaskQueue or Semaphore).
type Config struct {
	// Policy orders waiting jobs; nil = Default().
	Policy Policy
	// Quota caps concurrently running jobs per client (0 = unlimited).
	// Jobs over quota stay queued — they are deferred, never rejected.
	Quota int
	// Now overrides the clock, for deterministic aging tests. nil =
	// time.Now.
	Now func() time.Time
}

func (c Config) policy() Policy {
	if c.Policy == nil {
		return Default()
	}
	return c.Policy
}

func (c Config) now() time.Time {
	if c.Now == nil {
		//flexvet:walltime the scheduler's aging/deadline clock orders queue pops, which never changes job output
		return time.Now()
	}
	return c.Now()
}

// waiter is the queue-internal bookkeeping shared by TaskQueue and
// Semaphore; each uses its own payload fields.
type waiter struct {
	class Class
	seq   uint64
	since time.Time

	// TaskQueue payload.
	run func(wait time.Duration)

	// Semaphore payload.
	grant   chan Grant
	granted bool
}

// pickBest returns the index of the best eligible waiter in ws at now, or
// -1 when every waiter is quota-blocked (or ws is empty). running counts
// per-client holders; it both enforces Config.Quota and feeds the policy's
// fair-share load.
func pickBest(cfg Config, ws []*waiter, running map[string]int, now time.Time) int {
	pol := cfg.policy()
	best := -1
	var bw Waiter
	for i, w := range ws {
		if cfg.Quota > 0 && running[w.class.Client] >= cfg.Quota {
			continue
		}
		cand := Waiter{
			Class: w.class, Seq: w.seq, Since: w.since,
			Load: running[w.class.Client],
		}
		if best < 0 || pol.Less(cand, bw, now) {
			best, bw = i, cand
		}
	}
	return best
}
