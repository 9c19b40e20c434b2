package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/report"
	"github.com/flex-eda/flex/internal/sched"
)

// SchedPoint is one priority class's outcome in the scheduling experiment:
// a batch of identical FLEX jobs per class, submitted lowest class first
// (the adversarial order for a FIFO queue), contending for the driver's
// workers and boards. The wait percentiles are wall-clock scheduling
// observations — under the priority scheduler the urgent class's p99 queue
// wait drops strictly below the bulk class's; under -sched fifo the
// classes wait alike in arrival order.
type SchedPoint struct {
	// Label names the class; Priority is its scheduling level and Client
	// its tenant identity (each class submits as its own client, so the
	// fairness statistics are visible per class too).
	Label    string
	Priority int
	Client   string
	// Jobs is the class's job count; Legal counts jobs whose legalization
	// came back legal — the deterministic columns of the rendered table.
	Jobs  int
	Legal int
	// P50Wait/P99Wait/MaxWait summarize the class's queue-wait
	// distribution (time between submission and a worker picking the job
	// up). Scheduling observations: they land on stderr, never in the
	// table.
	P50Wait, P99Wait, MaxWait time.Duration
	// DeviceWait sums the class's board queue time — the second queue the
	// scheduler orders.
	DeviceWait time.Duration
	// Cells is the movable-cell count of the design every job legalizes;
	// ModeledSeconds and Ops sum the class's deterministic engine work
	// (jobs are identical, so both are perClass multiples of one run) —
	// the benchjson trajectory record for the class.
	Cells          int
	ModeledSeconds float64
	Ops            benchjson.Ops
}

// schedClasses is the fixed class ladder of the experiment, lowest first —
// the submission order that maximally punishes arrival-order scheduling.
var schedClasses = []struct {
	label    string
	priority int
}{
	{"bulk", 0},
	{"normal", 4},
	{"urgent", 8},
}

// Sched runs the scheduling experiment: perClass identical FLEX jobs per
// priority class on the first selected design, all submitted at once, bulk
// first. The engines are deterministic, so the table (jobs and legality per
// class) is byte-identical across schedulers, workers and boards; only the
// wait distributions move — which is exactly what the experiment measures.
func Sched(opt Options, perClass int) ([]SchedPoint, error) {
	opt = opt.withDefaults()
	if perClass < 1 {
		perClass = 8
	}
	specs := opt.suite()
	if len(specs) == 0 {
		return nil, fmt.Errorf("sched: empty suite")
	}
	spec := specs[0]
	l, err := opt.generate(spec, opt.Scale)
	if err != nil {
		return nil, err
	}

	n := perClass * len(schedClasses)
	jobs := make([]batch.Job[*engine.Result], 0, n)
	classes := make([]sched.Class, 0, n)
	owner := make([]int, 0, n) // job index -> class index
	for ci, c := range schedClasses {
		for i := 0; i < perClass; i++ {
			jobs = append(jobs, func(ctx context.Context) (*engine.Result, error) {
				return engine.Run(ctx, engine.FLEX, l, engine.Options{})
			})
			classes = append(classes, sched.Class{
				Priority: c.priority,
				Client:   c.label,
				Job:      fmt.Sprintf("sched-%s-%d", c.label, i),
			})
			owner = append(owner, ci)
		}
	}
	results, err := run(opt, jobs, classes)
	if err != nil {
		return nil, fmt.Errorf("sched %s: %w", spec.Name, err)
	}

	pts := make([]SchedPoint, len(schedClasses))
	waits := make([][]time.Duration, len(schedClasses))
	for ci, c := range schedClasses {
		pts[ci] = SchedPoint{Label: c.label, Priority: c.priority, Client: c.label,
			Cells: len(l.MovableIDs()), Ops: benchjson.Ops{}}
	}
	for i, r := range results {
		ci := owner[i]
		pts[ci].Jobs++
		if r.Value.Legal {
			pts[ci].Legal++
		}
		pts[ci].ModeledSeconds += r.Value.ModeledSeconds
		pts[ci].Ops.Add(r.Value.Ops())
		pts[ci].DeviceWait += r.DeviceWait
		waits[ci] = append(waits[ci], r.SchedWait)
	}
	for ci := range pts {
		pts[ci].P50Wait = percentile(waits[ci], 50)
		pts[ci].P99Wait = percentile(waits[ci], 99)
		pts[ci].MaxWait = percentile(waits[ci], 100)
	}
	if opt.Bench != nil {
		for _, p := range pts {
			opt.Bench.Add(benchjson.Record{
				Design: spec.Name, Engine: "flex",
				Config: fmt.Sprintf("class=%s priority=%d jobs=%d", p.Label, p.Priority, p.Jobs),
				Cells:  p.Cells, Legal: p.Legal == p.Jobs,
				ModeledSeconds: p.ModeledSeconds, Ops: p.Ops,
			})
		}
	}
	return pts, nil
}

// percentile is the nearest-rank percentile of ds (ds is not modified).
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (len(sorted)*p + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// RenderSched renders the scheduling experiment's deterministic columns;
// the wait percentiles are wall-clock observations and belong on stderr
// (flexbench prints them there).
func RenderSched(pts []SchedPoint) *report.Table {
	t := report.NewTable("Priority scheduling under contention: identical FLEX jobs per class, bulk submitted first",
		"Class", "Priority", "Client", "Jobs", "Legal")
	for _, p := range pts {
		t.Add(p.Label, fmt.Sprint(p.Priority), p.Client,
			fmt.Sprint(p.Jobs), fmt.Sprint(p.Legal))
	}
	return t
}
