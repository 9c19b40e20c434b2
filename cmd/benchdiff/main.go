// Command benchdiff compares two BENCH_*.json perf-trajectory files (see
// internal/benchjson and docs/BENCHMARKING.md) and fails when the new file
// regresses on the old one.
//
// Usage:
//
//	benchdiff [-op-tol 0] [-sec-tol 0] [-allow-missing] old.json new.json
//
// Records are matched by (experiment, design, engine, config). A
// regression is an op count or modeled-seconds value in the new file
// exceeding the old value by more than the relative tolerance
// (new > old × (1 + tol)); op counts are deterministic in this
// repository, so the CI gate runs with -op-tol 0. A record present in the
// old file but missing from the new one fails unless -allow-missing is
// set (records added by the new file are reported but never fail — the
// trajectory is allowed to grow). Legality and quality may never regress:
// a record that was legal and no longer is, or whose aveDis or maxDis
// rose, fails at any tolerance.
//
// There is deliberately no wall-clock tolerance flag: BENCH files never
// contain wall-clock time (that is what keeps them byte-stable), so there
// is nothing such a flag could check. Passing the removed -wall-tol flag
// is an error that says so.
//
// Exit status: 0 when the new file is no worse, 1 on any regression,
// 2 on usage or file errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/flex-eda/flex/internal/benchjson"
)

// diffOptions configures a comparison.
type diffOptions struct {
	opTol        float64 // relative tolerance on op counts
	secTol       float64 // relative tolerance on modeled seconds
	allowMissing bool    // tolerate records that disappeared
}

// finding is one comparison outcome worth reporting.
type finding struct {
	key        string // "experiment/design|engine|config"
	metric     string // op key, "modeledSeconds", "legal", "aveDis", "maxDis", or "record"
	old, new   float64
	regression bool
	note       string
}

func (f finding) String() string {
	if f.note != "" {
		return fmt.Sprintf("%s: %s: %s", f.key, f.metric, f.note)
	}
	delta := 0.0
	if f.old != 0 {
		delta = (f.new - f.old) / f.old * 100
	}
	return fmt.Sprintf("%s: %s: %.6g -> %.6g (%+.2f%%)", f.key, f.metric, f.old, f.new, delta)
}

// exceeds reports whether next regresses past prev under the relative
// tolerance tol.
func exceeds(prev, next, tol float64) bool {
	return next > prev*(1+tol)+1e-12
}

// diff compares two files and returns the findings: every regression plus
// informational notes (improvements are silent — benchstat territory).
func diff(oldF, newF *benchjson.File, opt diffOptions) []finding {
	var out []finding
	newExp := map[string]*benchjson.Experiment{}
	for _, e := range newF.Experiments {
		newExp[e.Name] = e
	}
	for _, oe := range oldF.Experiments {
		ne, ok := newExp[oe.Name]
		if !ok {
			out = append(out, finding{key: oe.Name, metric: "experiment", regression: !opt.allowMissing,
				note: "missing from new file"})
			continue
		}
		newRec := map[string]benchjson.Record{}
		for _, r := range ne.Records {
			newRec[r.Key()] = r
		}
		oldKeys := map[string]bool{}
		for _, or := range oe.Records {
			key := oe.Name + "/" + or.Key()
			oldKeys[or.Key()] = true
			nr, ok := newRec[or.Key()]
			if !ok {
				out = append(out, finding{key: key, metric: "record", regression: !opt.allowMissing,
					note: "missing from new file"})
				continue
			}
			if or.Legal && !nr.Legal {
				out = append(out, finding{key: key, metric: "legal", regression: true,
					note: "was legal, now illegal"})
			}
			for _, q := range []struct {
				metric   string
				old, new float64
			}{{"aveDis", or.AveDis, nr.AveDis}, {"maxDis", or.MaxDis, nr.MaxDis}} {
				if q.new > q.old {
					out = append(out, finding{key: key, metric: q.metric, old: q.old, new: q.new, regression: true})
				}
			}
			if exceeds(or.ModeledSeconds, nr.ModeledSeconds, opt.secTol) {
				out = append(out, finding{key: key, metric: "modeledSeconds",
					old: or.ModeledSeconds, new: nr.ModeledSeconds, regression: true})
			}
			for op, ov := range or.Ops {
				nv, ok := nr.Ops[op]
				if !ok {
					out = append(out, finding{key: key, metric: "ops." + op, regression: !opt.allowMissing,
						note: "op counter missing from new file"})
					continue
				}
				if exceeds(float64(ov), float64(nv), opt.opTol) {
					out = append(out, finding{key: key, metric: "ops." + op,
						old: float64(ov), new: float64(nv), regression: true})
				}
			}
		}
		for _, nr := range ne.Records {
			if !oldKeys[nr.Key()] {
				out = append(out, finding{key: oe.Name + "/" + nr.Key(), metric: "record",
					note: "added (informational)"})
			}
		}
	}
	return out
}

func main() {
	for _, arg := range os.Args[1:] {
		if arg == "--" {
			break
		}
		if t := strings.TrimLeft(arg, "-"); arg != t && (t == "wall-tol" || strings.HasPrefix(t, "wall-tol=")) {
			fmt.Fprintln(os.Stderr, "benchdiff: -wall-tol was removed: wall clock never enters BENCH files by design, so there is nothing for it to tolerate (see docs/BENCHMARKING.md)")
			os.Exit(2)
		}
	}
	opTol := flag.Float64("op-tol", 0, "relative tolerance on op-count growth (0 = byte-deterministic counts must not grow)")
	secTol := flag.Float64("sec-tol", 0, "relative tolerance on modeled-seconds growth")
	allowMissing := flag.Bool("allow-missing", false, "tolerate records present in old but absent from new")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-op-tol F] [-sec-tol F] [-allow-missing] old.json new.json")
		os.Exit(2)
	}

	oldF, err := benchjson.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newF, err := benchjson.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	findings := diff(oldF, newF, diffOptions{opTol: *opTol, secTol: *secTol, allowMissing: *allowMissing})
	regressions := 0
	for _, f := range findings {
		tag := "note"
		if f.regression {
			tag = "REGRESSION"
			regressions++
		}
		fmt.Printf("%s: %s\n", tag, f) //flexvet:stdout findings are benchdiff's result
	}
	if regressions > 0 {
		//flexvet:stdout the verdict line is benchdiff's result
		fmt.Printf("benchdiff: %d regression(s) between %s and %s\n", regressions, flag.Arg(0), flag.Arg(1))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %s is no worse than %s\n", flag.Arg(1), flag.Arg(0)) //flexvet:stdout the verdict line is benchdiff's result
}
