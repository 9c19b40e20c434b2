package analytical

import (
	"runtime"
	"testing"

	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
)

func testLayout(t *testing.T, n int, density float64, seed int64) *model.Layout {
	t.Helper()
	l, err := gen.Small(n, density, seed).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAnalyticalLegalizes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		den  float64
		seed int64
	}{
		{300, 0.45, 401},
		{300, 0.6, 402},
		{250, 0.75, 403},
	} {
		l := testLayout(t, tc.n, tc.den, tc.seed)
		res := Legalize(l, Config{})
		if !res.Legal {
			t.Fatalf("den=%.2f seed=%d: illegal (failed=%d, violations=%v)",
				tc.den, tc.seed, res.Failed, res.Violations)
		}
		if res.Stats.Iterations == 0 || res.Stats.RowSolves == 0 {
			t.Fatalf("solver did no work: %+v", res.Stats)
		}
	}
}

func TestAnalyticalDeterminism(t *testing.T) {
	l := testLayout(t, 250, 0.55, 404)
	a := Legalize(l, Config{})
	b := Legalize(l, Config{})
	if a.Metrics.AveDis != b.Metrics.AveDis || a.TotalSeconds != b.TotalSeconds {
		t.Fatal("analytical engine not deterministic")
	}
}

func TestAnalyticalSlowerThanFLEX(t *testing.T) {
	// Table 1 shape: the analytical GPU method is much slower than FLEX
	// (Acc(I) averages 14.7×) and no better on average displacement.
	l := testLayout(t, 400, 0.6, 405)
	an := Legalize(l, Config{})
	fx := core.Legalize(l, core.Config{})
	if an.TotalSeconds <= fx.TotalSeconds {
		t.Fatalf("analytical (%.6fs) should be slower than FLEX (%.6fs)",
			an.TotalSeconds, fx.TotalSeconds)
	}
}

func TestMoreIterationsImproveOrHold(t *testing.T) {
	l := testLayout(t, 300, 0.6, 406)
	short := Legalize(l, Config{Iterations: 4})
	long := Legalize(l, Config{Iterations: 32})
	if !long.Legal {
		t.Fatal("long run illegal")
	}
	// More iterations cost more modeled time.
	if long.TotalSeconds <= short.TotalSeconds {
		t.Fatal("iterations not reflected in modeled time")
	}
	// And should not be dramatically worse in quality.
	if long.Metrics.AveDis > short.Metrics.AveDis*1.5 {
		t.Fatalf("quality diverged with iterations: %v vs %v",
			long.Metrics.AveDis, short.Metrics.AveDis)
	}
}

func TestQualityReasonable(t *testing.T) {
	l := testLayout(t, 400, 0.55, 407)
	res := Legalize(l, Config{})
	if !res.Legal {
		t.Fatalf("illegal: %v", res.Violations)
	}
	if res.Metrics.AveDis <= 0 || res.Metrics.AveDis > 8 {
		t.Fatalf("AveDis %v implausible", res.Metrics.AveDis)
	}
}

// TestRepairAllocationCeiling caps what one run allocates on a dense
// des_perf_1-shaped input whose projection leaves offenders for the repair
// pass. The pass keeps its placed flags and its region, FOP and shifting
// scratch for all its windows and offenders, and indexes the rows'
// obstacles once per attempt, so going back to a fresh set per window or a
// fresh index per offender blows the ceiling.
func TestRepairAllocationCeiling(t *testing.T) {
	spec, _ := gen.ByName("des_perf_1")
	spec.Seed = 16
	l, err := spec.Generate(500 / float64(spec.NumCells))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	run := func() { res = Legalize(l, Config{}) }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if res.Stats.Repaired == 0 {
		t.Fatal("the input no longer reaches the repair pass")
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d B, %d allocs per run", bytes, objects)
	const maxBytes, maxObjects = 1 << 20, 2_000
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one run allocates %d B and %d objects; the ceiling is %d B and %d objects",
			bytes, objects, maxBytes, maxObjects)
	}
}
