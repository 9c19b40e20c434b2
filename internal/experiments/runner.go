package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/sched"
)

// run is every driver's executor: it fans jobs across Options.Pool and
// returns their results in submission order, failing on the first job
// error. Because the engines are deterministic and jobs are independent,
// any worker count produces identical tables. Drivers want all-or-nothing
// results, so the batch fails fast: one job error stops scheduling instead
// of burning the rest of the suite. A nil pool runs the batch on a
// throwaway default pool (GOMAXPROCS workers, one modeled board).
//
// classes gives each job its scheduling class; nil stamps every job with
// Options.Priority, so a whole flexbench run schedules below or above
// concurrent pool traffic. Jobs that run the FLEX engine hold a board
// through engine.Run and contend on the pool's boards, while CPU-only jobs
// overlap freely. Per-batch pool statistics accumulate into Options.Stats
// when set — never into the returned values, which stay byte-identical
// across workers × FPGAs × cache configurations.
func run[T any](opt Options, jobs []batch.Job[T], classes []sched.Class) ([]batch.Result[T], error) {
	pool := opt.Pool
	if pool == nil {
		pool = batch.NewPool(batch.PoolConfig{})
		defer pool.Close()
	}
	if classes == nil && opt.Priority != 0 {
		classes = make([]sched.Class, len(jobs))
		for i := range classes {
			classes[i] = sched.Class{Priority: opt.Priority}
		}
	}
	results, st, err := batch.RunClassedOn(context.Background(), pool, jobs, classes, true, nil)
	if opt.Stats != nil {
		opt.Stats.Add(st)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// values runs jobs like run and returns their values in submission order.
func values[T any](opt Options, jobs []batch.Job[T]) ([]T, error) {
	results, err := run(opt, jobs, nil)
	if err != nil {
		return nil, err
	}
	return batch.Values(results)
}

// engineJob is one driver job: legalize layout() with kind's engine and
// keep what pick reads off the result.
func engineJob[T any](layout func() (*model.Layout, error), kind engine.Kind, o engine.Options, pick func(*engine.Result) T) batch.Job[T] {
	return func(ctx context.Context) (T, error) {
		var zero T
		l, err := layout()
		if err != nil {
			return zero, err
		}
		r, err := engine.Run(ctx, kind, l, o)
		if err != nil {
			return zero, err
		}
		return pick(r), nil
	}
}

// modeledSeconds and aveDis are the engineJob picks of drivers that keep
// one number per run.
func modeledSeconds(r *engine.Result) float64 { return r.ModeledSeconds }
func aveDis(r *engine.Result) float64         { return r.Metrics.AveDis }

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

// lazyLayouts returns one memoized generator per spec for drivers whose
// jobs share a design across several engine/config variants: each design is
// generated at most once per call, on first use, by whichever job reaches
// it first — and at most once per process when a shared layout cache is
// wired (engines legalize clones, so sharing the pointer is safe). Compared
// to generating up front this keeps only touched designs resident and lets
// a fail-fast batch stop before generating the rest of the suite; compared
// to generating per job it never duplicates work.
func lazyLayouts(opt Options, specs []gen.Spec, scale float64) []func() (*model.Layout, error) {
	out := make([]func() (*model.Layout, error), len(specs))
	for i, spec := range specs {
		out[i] = sync.OnceValues(func() (*model.Layout, error) {
			return opt.generate(spec, scale)
		})
	}
	return out
}

// perSpec builds one job per design spec — generate at scale on the worker
// (through the shared cache when wired), then measure — and runs them
// through the pool.
func perSpec[T any](opt Options, specs []gen.Spec, scale float64, measure func(spec gen.Spec, l *model.Layout) (T, error)) ([]T, error) {
	jobs := make([]batch.Job[T], len(specs))
	for i, spec := range specs {
		jobs[i] = func(context.Context) (T, error) {
			l, err := opt.generate(spec, scale)
			if err != nil {
				var zero T
				return zero, err
			}
			return measure(spec, l)
		}
	}
	return values(opt, jobs)
}
