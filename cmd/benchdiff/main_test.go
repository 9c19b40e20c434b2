package main

import (
	"testing"

	"github.com/flex-eda/flex/internal/benchjson"
)

func trajectory(subcellVisits int64, legal bool) *benchjson.File {
	f := benchjson.New(benchjson.Env{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}, benchjson.Config{Scale: 0.01})
	e := f.Experiment("table1")
	e.Add(benchjson.Record{
		Design: "des_perf_1", Engine: "flex", Cells: 1128, Legal: legal,
		AveDis: 1.2, ModeledSeconds: float64(subcellVisits) * 1e-8,
		Ops: benchjson.Ops{"fop.shift.subcellVisits": subcellVisits, "placed": 1128},
	})
	return f
}

func regressions(fs []finding) int {
	n := 0
	for _, f := range fs {
		if f.regression {
			n++
		}
	}
	return n
}

// The acceptance criterion: an injected op-count regression must fail.
func TestInjectedOpRegressionFails(t *testing.T) {
	old, injected := trajectory(1000, true), trajectory(1100, true)
	fs := diff(old, injected, diffOptions{})
	if regressions(fs) == 0 {
		t.Fatalf("injected +10%% op regression not flagged: %+v", fs)
	}
	// The op count and the modeled seconds derived from it both moved.
	var sawOp bool
	for _, f := range fs {
		if f.regression && f.metric == "ops.fop.shift.subcellVisits" {
			sawOp = true
		}
	}
	if !sawOp {
		t.Fatalf("regression findings missing the op counter: %+v", fs)
	}
}

func TestIdenticalFilesPass(t *testing.T) {
	if fs := diff(trajectory(1000, true), trajectory(1000, true), diffOptions{}); regressions(fs) > 0 {
		t.Fatalf("identical trajectories flagged: %+v", fs)
	}
}

func TestImprovementPasses(t *testing.T) {
	if fs := diff(trajectory(1000, true), trajectory(900, true), diffOptions{}); regressions(fs) > 0 {
		t.Fatalf("improvement flagged as regression: %+v", fs)
	}
}

func TestToleranceAbsorbsGrowth(t *testing.T) {
	old, grown := trajectory(1000, true), trajectory(1050, true)
	if fs := diff(old, grown, diffOptions{opTol: 0.10, secTol: 0.10}); regressions(fs) > 0 {
		t.Fatalf("5%% growth flagged under 10%% tolerance: %+v", fs)
	}
	if fs := diff(old, grown, diffOptions{opTol: 0.01, secTol: 0.01}); regressions(fs) == 0 {
		t.Fatal("5% growth passed under 1% tolerance")
	}
}

func TestLegalityRegressionFailsAtAnyTolerance(t *testing.T) {
	fs := diff(trajectory(1000, true), trajectory(1000, false), diffOptions{opTol: 100, secTol: 100})
	if regressions(fs) == 0 {
		t.Fatal("legal -> illegal not flagged")
	}
}

// TestQualityRiseFailsAtAnyTolerance: a record whose aveDis or maxDis
// rises is a regression whatever the tolerances, like a legality loss; a
// fall or an equal value passes.
func TestQualityRiseFailsAtAnyTolerance(t *testing.T) {
	const base = 1.2
	set := map[string]func(r *benchjson.Record, v float64){
		"aveDis": func(r *benchjson.Record, v float64) { r.AveDis = v },
		"maxDis": func(r *benchjson.Record, v float64) { r.MaxDis = v },
	}
	for _, metric := range []string{"aveDis", "maxDis"} {
		for _, c := range []struct {
			next       float64
			regression bool
		}{{base + 0.001, true}, {base - 0.001, false}, {base, false}} {
			old, next := trajectory(1000, true), trajectory(1000, true)
			set[metric](&old.Experiments[0].Records[0], base)
			set[metric](&next.Experiments[0].Records[0], c.next)
			fs := diff(old, next, diffOptions{opTol: 100, secTol: 100})
			want := 0
			if c.regression {
				want = 1
			}
			if n := regressions(fs); n != want || (n == 1 && fs[0].metric != metric) {
				t.Errorf("%s %g -> %g: %d regressions, want %d: %+v", metric, base, c.next, n, want, fs)
			}
		}
	}
}

func TestMissingRecordPolicies(t *testing.T) {
	old := trajectory(1000, true)
	empty := benchjson.New(old.Env, old.Config)
	empty.Experiment("table1")
	if fs := diff(old, empty, diffOptions{}); regressions(fs) == 0 {
		t.Fatal("missing record not flagged")
	}
	if fs := diff(old, empty, diffOptions{allowMissing: true}); regressions(fs) > 0 {
		t.Fatalf("-allow-missing still flagged: %+v", fs)
	}
	// Added records never fail.
	if fs := diff(empty, old, diffOptions{}); regressions(fs) > 0 {
		t.Fatalf("added record flagged: %+v", fs)
	}
}
