// Package batch is the host-side job orchestrator: a context-aware bounded
// worker pool that fans independent legalization jobs across goroutines and
// reports per-job results without losing submission order.
//
// The pool mirrors the paper's host/accelerator split one level up: the FLEX
// engine overlaps CPU steps with the FPGA pipeline inside one design, and
// this package overlaps whole (design × engine × scale) jobs across cores,
// the way OpenPARF/SYNERGY-style hosts multiplex many placement jobs over
// shared accelerator resources.
//
// Determinism contract: jobs must be pure functions of their inputs (every
// engine in this repo is — modeled seconds come from operation traces, not
// wall clocks). A Pool then returns identical results for any worker count;
// only the wall-clock stats change.
package batch

import (
	"context"
	"errors"
	"time"
)

// ErrSkipped marks a job that never started because the batch was canceled
// first — either by the parent context or by FailFast after an earlier
// job's error.
var ErrSkipped = errors.New("batch: job skipped (batch canceled)")

// Job is one unit of work. The context is the batch's: it is canceled when
// the parent context is canceled or, under FailFast, after the first error.
type Job[T any] func(ctx context.Context) (T, error)

// Result is one job's outcome.
type Result[T any] struct {
	// Index is the job's submission index; RunClassedOn returns results
	// sorted by it.
	Index int
	Value T
	Err   error
	// Wall is the job's own wall-clock time (zero for skipped jobs).
	Wall time.Duration
	// SchedWait is the time the job spent queued for a worker — between
	// entering the pool's scheduling queue and a worker picking it up. The
	// per-class wait distributions of the sched experiment come from it.
	SchedWait time.Duration
	// DeviceWait is the time the job queued for the pool's shared
	// accelerator; DeviceHold is the time it occupied a board. Both are
	// zero for CPU-only jobs and for pools without a device.
	DeviceWait time.Duration
	DeviceHold time.Duration
	// DeviceReconfigs counts the job's board acquisitions that had to
	// reprogram the board because its previous holder ran a different job
	// (first-ever board use included).
	DeviceReconfigs int
	// deviceAcquires/deviceContended count the job's board acquisitions
	// (and how many had to wait), so batch stats stay exact per batch even
	// on a pool shared by concurrent batches; deviceReconfigTime is the
	// modeled programming time its reconfigurations charged.
	deviceAcquires     int
	deviceContended    int
	deviceReconfigTime time.Duration
	// aborted marks a cancellation-shaped error returned while the batch
	// context was already canceled: the batch cut the job short, as
	// opposed to a job-owned sub-context timing out on a healthy batch.
	aborted bool
}

// Stats aggregates a finished run.
type Stats struct {
	Jobs    int
	Errors  int // jobs that ran and returned an error
	Skipped int // jobs never started (cancellation or fail-fast)
	Workers int // effective pool size
	// Wall is the whole batch's wall-clock time; WorkWall is the sum of
	// per-job wall clocks. WorkWall/Wall approximates the achieved overlap
	// (per-job wall includes CPU contention when workers exceed cores).
	Wall     time.Duration
	WorkWall time.Duration
	// SchedWait sums per-job queue time for a worker — how long the
	// batch's jobs sat in the scheduling queue in total.
	SchedWait time.Duration
	// Device aggregates across jobs when the pool models boards: FPGAs is
	// the modeled board count, DeviceWait/DeviceHold sum per-job queueing
	// and occupancy, and DeviceAcquires/DeviceContended count token
	// acquisitions (total, and those that had to wait). DeviceWait > 0
	// with WorkWall > Wall is the shared-board signature: accelerator
	// phases serialized while CPU work kept overlapping. DeviceReconfigs
	// counts acquisitions that reprogrammed their board (holder changed);
	// DeviceReconfigTime is the modeled programming time charged for them.
	FPGAs              int
	DeviceWait         time.Duration
	DeviceHold         time.Duration
	DeviceAcquires     int
	DeviceContended    int
	DeviceReconfigs    int
	DeviceReconfigTime time.Duration
}

// Add accumulates another run's stats, for callers that aggregate several
// batches (e.g. one per experiment driver) into one report. Wall times sum
// (the runs are assumed sequential); Workers and FPGAs keep the maximum.
func (s *Stats) Add(o Stats) {
	s.Jobs += o.Jobs
	s.Errors += o.Errors
	s.Skipped += o.Skipped
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Wall += o.Wall
	s.WorkWall += o.WorkWall
	s.SchedWait += o.SchedWait
	if o.FPGAs > s.FPGAs {
		s.FPGAs = o.FPGAs
	}
	s.DeviceWait += o.DeviceWait
	s.DeviceHold += o.DeviceHold
	s.DeviceAcquires += o.DeviceAcquires
	s.DeviceContended += o.DeviceContended
	s.DeviceReconfigs += o.DeviceReconfigs
	s.DeviceReconfigTime += o.DeviceReconfigTime
}
