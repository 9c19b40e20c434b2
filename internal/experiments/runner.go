package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
)

// job is one driver job: legalize l with engine e under eo, at the run's
// Options.Priority, so a whole flexbench run schedules below or above
// concurrent traffic on a shared service.
func (o Options) job(l *model.Layout, e flex.Engine, eo flex.Options) flex.BatchJob {
	return flex.BatchJob{Layout: l, Engine: e, Options: eo, Priority: o.Priority}
}

// shardedJob is a FLEX job over k row bands of l with the given seam halo.
// A driver's halo of 0 means no halo, which the service spells as a
// negative ShardHalo (its 0 is DefaultShardHalo).
func (o Options) shardedJob(l *model.Layout, k, halo int) flex.BatchJob {
	j := o.job(l, flex.EngineFLEX, flex.Options{})
	j.Shards, j.ShardHalo = k, halo
	if halo == 0 {
		j.ShardHalo = -1
	}
	return j
}

// submit is every driver's executor: it runs jobs as one fail-fast batch on
// Options.Service (nil: a throwaway default service) and returns their
// results in submission order, failing on the first job error. Because the
// engines are deterministic and jobs are independent, any service shape
// produces identical tables. runs holds the engine result behind every
// locally legalized job or band, keyed by its outcome's layout — the op
// counts and modeled breakdown a BatchResult does not carry. A band served
// from an outcome cache ran no engine and has no entry.
//
// The batch's statistics accumulate into Options.Stats when set — never
// into the returned values. Board acquisitions are read as the service's
// deltas across the batch, exact because a driver's service runs one batch
// at a time.
func (o Options) submit(jobs []flex.BatchJob) (results []flex.BatchResult, runs map[*model.Layout]*engine.Result, err error) {
	svc := o.Service
	if svc == nil {
		svc = flex.NewService()
		defer svc.Close()
	}
	var mu sync.Mutex
	runs = make(map[*model.Layout]*engine.Result)
	ctx := engine.WithObserver(context.TODO(), func(r *engine.Result) {
		mu.Lock()
		runs[r.Layout] = r
		mu.Unlock()
	})
	before := svc.Stats()
	sum, err := svc.Submit(ctx, jobs, flex.SubmitOptions{FailFast: true})
	if sum != nil && o.Stats != nil {
		after := svc.Stats()
		o.Stats.Add(batch.Stats{
			Jobs: len(jobs), Errors: sum.Errors, Skipped: sum.Skipped, Workers: sum.Workers,
			Wall: sum.Wall, WorkWall: sum.WorkWall, SchedWait: sum.SchedWait,
			FPGAs: sum.FPGAs, DeviceWait: sum.DeviceWait, DeviceHold: sum.DeviceHold,
			DeviceAcquires:     after.DeviceAcquires - before.DeviceAcquires,
			DeviceContended:    after.DeviceContended - before.DeviceContended,
			DeviceReconfigs:    sum.Reconfigs,
			DeviceReconfigTime: after.ReconfigTime - before.ReconfigTime,
		})
	}
	if err != nil {
		return nil, nil, err
	}
	for _, r := range sum.Results {
		if r.Err != nil {
			return nil, nil, r.Err
		}
	}
	return sum.Results, runs, nil
}

// fanOut is the executor of the drivers that price traces and run no table
// engine: f(i) for every i in [0, n), on at most the service's worker count
// of goroutines (GOMAXPROCS without a service), values in index order. It
// returns the lowest-indexed error.
func fanOut[T any](o Options, n int, f func(i int) (T, error)) ([]T, error) {
	workers := runtime.GOMAXPROCS(0)
	if o.Service != nil {
		workers = o.Service.Stats().Workers
	}
	out := make([]T, n)
	errs := make([]error, n)
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range out {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			out[i], errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// generate builds spec at scale, through the shared layout cache when the
// caller wired one (Options.Layouts). Cached layouts are shared across
// drivers — engines legalize clones, so the pointer is safe to share.
func (o Options) generate(spec gen.Spec, scale float64) (*model.Layout, error) {
	l, err := gen.Cached(o.Layouts, spec, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return l, nil
}

// perSpec generates each design spec at scale and measures it, one design
// per fanOut slot (through the shared cache when wired).
func perSpec[T any](opt Options, specs []gen.Spec, scale float64, measure func(spec gen.Spec, l *model.Layout) (T, error)) ([]T, error) {
	return fanOut(opt, len(specs), func(i int) (T, error) {
		l, err := opt.generate(specs[i], scale)
		if err != nil {
			var zero T
			return zero, err
		}
		return measure(specs[i], l)
	})
}

// generateAll generates every spec at the run's scale (see perSpec).
func (o Options) generateAll(specs []gen.Spec) ([]*model.Layout, error) {
	return perSpec(o, specs, o.Scale, func(_ gen.Spec, l *model.Layout) (*model.Layout, error) { return l, nil })
}
