// Command flexvet is the repository's custom static-analysis gate: a
// vet-style multichecker whose five analyzers — walltime, maporder,
// streamdiscipline, errclose and metricname — machine-enforce the
// determinism, output-discipline, close-error and metric-naming
// invariants every PR used to defend by review (see docs/ANALYSIS.md for
// the rules and the justification grammar).
//
// Usage:
//
//	flexvet [-json] [-walltime=false] [-maporder=false]
//	        [-streamdiscipline=false] [-errclose=false] [-metricname=false]
//	        [packages...]
//
// Packages default to ./... resolved from the current directory. Each
// analyzer has an enable/disable flag named after it; the //flexvet:
// comment-grammar check always runs. Diagnostics — the tool's result —
// print to stdout, one "file:line:col: analyzer: message" line each (or a
// JSON array under -json); load errors go to stderr.
//
// Exit status: 0 when the tree is clean, 1 when any diagnostic fired,
// 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/flex-eda/flex/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	enabled := map[string]*bool{}
	for _, a := range analysis.All() {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	flag.Parse()

	var active []*analysis.Analyzer
	for _, a := range analysis.All() {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	pkgs, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexvet: %v\n", err)
		os.Exit(2)
	}
	diags := []analysis.Diagnostic{}
	for _, pkg := range pkgs {
		diags = append(diags, analysis.RunAnalyzers(active, pkg)...)
	}
	report(diags, *jsonOut)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// report prints the diagnostics to stdout — they are flexvet's result;
// everything else the tool says goes to stderr.
//
//flexvet:stdout diagnostics are the tool's result, and CI greps them
func report(diags []analysis.Diagnostic, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "flexvet: %v\n", err)
			os.Exit(2)
		}
		return
	}
	for _, d := range diags {
		fmt.Println(d)
	}
}
