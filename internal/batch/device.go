package batch

import (
	"context"
	"sync"
	"time"

	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// Device models a pool of physical accelerator boards shared by every job
// of a batch — the paper's single Alveo card multiplexed across a host's
// concurrent legalization jobs. Board tokens are handed out by a scheduled
// semaphore (internal/sched): waiters are served in policy order — priority,
// deadline, fairness — instead of arrival order, and each board remembers
// the configuration (bitstream) of its last holder so the model can charge
// a reconfiguration delay when consecutive holders come from different
// jobs. Assignment is affinity-aware: a job is steered to a board already
// carrying its configuration when one is free.
//
// Holding a token never changes what a job computes — engines are pure
// functions of their inputs — so results stay byte-identical for any
// capacity, policy, or reconfiguration cost; only wall-clock and wait
// statistics move.
type Device struct {
	sem  *sched.Semaphore
	cost time.Duration

	mu    sync.Mutex
	stats DeviceStats
}

// DeviceStats aggregates a device's acquisition history.
type DeviceStats struct {
	// Capacity is the number of modeled boards.
	Capacity int
	// Acquires counts successful token acquisitions; Contended counts
	// acquisition attempts that had to wait because every board was busy,
	// including waits aborted by cancellation — so in a canceled batch
	// Contended can exceed Acquires.
	Acquires  int
	Contended int
	// Wait is the total time jobs spent queued for a token (including
	// queue time of canceled attempts); Hold is the total time tokens
	// were held (the boards' modeled busy time, reconfiguration included).
	Wait time.Duration
	Hold time.Duration
	// Reconfigs counts acquisitions that had to reprogram their board: the
	// acquiring job's configuration differed from the board's previous
	// holder's (each board's first use included — the bitstream must be
	// loaded). ReconfigTime is the total modeled programming time charged
	// for them; it is part of Hold. ReconfigCost echoes the per-swap delay
	// the device was built with (0 = reconfigurations are counted but
	// free).
	Reconfigs    int
	ReconfigTime time.Duration
	ReconfigCost time.Duration
}

// newDevice builds a device pool with the given capacity (<= 0 means 1,
// the paper's single-board host), a board-queue scheduling configuration,
// and a modeled per-swap reconfiguration delay: every hold whose job
// differs from the board's previous holder keeps the board busy for
// reconfigCost before the job's own device phase starts.
func newDevice(capacity int, reconfigCost time.Duration, cfg sched.Config) *Device {
	if capacity <= 0 {
		capacity = 1
	}
	if reconfigCost < 0 {
		reconfigCost = 0
	}
	return &Device{
		sem:   sched.NewSemaphore(capacity, cfg),
		cost:  reconfigCost,
		stats: DeviceStats{Capacity: capacity, ReconfigCost: reconfigCost},
	}
}

// Capacity returns the number of modeled boards.
func (d *Device) Capacity() int { return d.sem.Capacity() }

// Stats snapshots the cumulative acquisition statistics. A nil Device
// (unlimited boards, no device modeling) reports the zero value.
func (d *Device) Stats() DeviceStats {
	if d == nil {
		return DeviceStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *Device) note(contended, reconfig bool, wait, hold, reconfigTime time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Wait += wait
	d.stats.Hold += hold
	d.stats.Acquires++
	if contended {
		d.stats.Contended++
	}
	if reconfig {
		d.stats.Reconfigs++
		d.stats.ReconfigTime += reconfigTime
	}
}

// noteCanceled records a blocked acquisition the batch canceled before a
// board freed up: the queue time is real contention and must not vanish
// from the report just because the wait was aborted.
func (d *Device) noteCanceled(wait time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Wait += wait
	d.stats.Contended++
}

// deviceKey/usageKey/classKey carry the batch's device, the running job's
// usage recorder, and the job's scheduling class through the job context.
type (
	deviceKey struct{}
	usageKey  struct{}
	classKey  struct{}
)

// deviceUsage accumulates one job's device time and acquisition counts. It
// is written by HoldDevice and read by the worker after the job returns,
// all on the job's goroutine. Per-job counts let a batch report exact
// per-batch acquisition statistics even when concurrent batches share one
// pool — a delta of the pool's cumulative stats would blend the siblings.
type deviceUsage struct {
	wait         time.Duration
	hold         time.Duration
	acquires     int
	contended    int
	reconfigs    int
	reconfigTime time.Duration
}

// AddRemoteDeviceUsage folds device telemetry a remote fleet worker
// reported for the calling job into the job's usage record, so a
// coordinator's per-batch device statistics include board time its fleet
// spent on the job's behalf. The remote wait/hold never touch the local
// Device pool — those boards are the worker's — and a context without a
// usage record (the batch models no device) drops the telemetry.
func AddRemoteDeviceUsage(ctx context.Context, wait, hold time.Duration, reconfigs int) {
	usage, _ := ctx.Value(usageKey{}).(*deviceUsage)
	if usage == nil {
		return
	}
	usage.wait += wait
	usage.hold += hold
	usage.reconfigs += reconfigs
}

// withDevice returns a context carrying the device pool; the pool attaches
// its device to every job it runs, so the job's HoldDevice queues for it.
func withDevice(ctx context.Context, d *Device) context.Context {
	return context.WithValue(ctx, deviceKey{}, d)
}

// deviceFrom returns the context's device pool, or nil when the batch has
// no accelerator model attached.
func deviceFrom(ctx context.Context) *Device {
	d, _ := ctx.Value(deviceKey{}).(*Device)
	return d
}

// withClass returns a context carrying the job's scheduling class, so
// HoldDevice can queue for boards under the job's priority, deadline and
// configuration identity.
func withClass(ctx context.Context, c sched.Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// classFrom returns the context's scheduling class (zero outside a classed
// batch — neutral priority, anonymous client, always-reconfigure).
func classFrom(ctx context.Context) sched.Class {
	c, _ := ctx.Value(classKey{}).(sched.Class)
	return c
}

// HoldDevice runs fn while holding one modeled board for the calling job's
// accelerator-resident phase, and returns the board when fn returns or
// panics. Without a device on the context fn simply runs, so engine code
// may declare its accelerator phase unconditionally and still run outside
// any batch. The wait honors ctx: a hold canceled while queued for a board,
// or while the board is being reprogrammed, runs no fn and returns
// ctx.Err(). When the granted board's previous holder ran a different job,
// the board stays busy for the device's modeled reconfiguration delay
// before fn starts. fn must not hold a board itself — nested holds
// self-deadlock at capacity 1.
//
//flexvet:walltime wait/hold/reconfig measurement is the device model's telemetry: stderr lines and stats sinks only
func HoldDevice(ctx context.Context, fn func()) error {
	d := deviceFrom(ctx)
	if d == nil {
		fn()
		return nil
	}
	class := classFrom(ctx)
	usage, _ := ctx.Value(usageKey{}).(*deviceUsage)
	if usage == nil {
		usage = &deviceUsage{}
	}
	start := time.Now()
	g, err := d.sem.Acquire(ctx, class)
	wait := time.Since(start)
	obs.Record(ctx, "device-wait", "", start, start.Add(wait))
	if err != nil {
		// The aborted wait was still time spent queued for the board.
		usage.wait += wait
		usage.contended++
		d.noteCanceled(wait)
		return err
	}
	heldAt := time.Now()
	var reconfigTime time.Duration
	defer func() {
		hold := time.Since(heldAt)
		usage.wait += wait
		usage.hold += hold
		usage.acquires++
		if g.Contended {
			usage.contended++
		}
		if g.Reconfig {
			usage.reconfigs++
			usage.reconfigTime += reconfigTime
		}
		obs.Record(ctx, "device-hold", "", heldAt, heldAt.Add(hold))
		if reconfigTime > 0 {
			obs.Record(ctx, "device-reconfig", "", heldAt, heldAt.Add(reconfigTime))
		}
		d.note(g.Contended, g.Reconfig, wait, hold, reconfigTime)
		d.sem.Release(g.Board, class)
	}()
	if g.Reconfig && d.cost > 0 {
		// The board is busy being reprogrammed: it is held through the
		// modeled delay.
		t := time.NewTimer(d.cost)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			reconfigTime = time.Since(heldAt)
			// The programming was cut short: the board carries no usable
			// bitstream, so its next holder must reconfigure — whoever it
			// is, including this same job's siblings.
			d.sem.Invalidate(g.Board)
			return ctx.Err()
		}
		reconfigTime = time.Since(heldAt)
	}
	fn()
	return nil
}
