package analysis

// Fixture tests: one violating and one clean file per analyzer under
// testdata/<name>/, with `// want` assertions checked one-to-one against
// the diagnostics (see harness_test.go). Cmd-scoped analyzers get import
// paths containing /cmd/ so they actually run; TestCmdScope proves they
// stay silent on library packages.

import (
	"go/ast"
	"go/parser"
	"testing"
)

func TestWalltimeFixtures(t *testing.T) {
	runFixture(t, Walltime, "walltime", "example.com/internal/walltime")
}

func TestMaporderFixtures(t *testing.T) {
	runFixture(t, Maporder, "maporder", "example.com/internal/maporder")
}

func TestStreamdisciplineFixtures(t *testing.T) {
	runFixture(t, Streamdiscipline, "streamdiscipline", "example.com/cmd/streamdiscipline")
}

func TestErrcloseFixtures(t *testing.T) {
	runFixture(t, Errclose, "errclose", "example.com/cmd/errclose")
}

func TestMetricnameFixtures(t *testing.T) {
	runFixture(t, Metricname, "metricname", "example.com/internal/metricname")
}

// TestWalltimeObsExempt runs an unjustified clock-reading fixture under
// an internal/obs import path: the walltime analyzer must stay silent —
// the telemetry package is exempt wholesale.
func TestWalltimeObsExempt(t *testing.T) {
	runFixture(t, Walltime, "walltimeobs", "example.com/internal/obs")
}

// scopeSrc violates both cmd-scoped analyzers when compiled as a command.
const scopeSrc = `package p

import (
	"fmt"
	"os"
)

func F(f *os.File) {
	fmt.Println("progress")
	f.Close()
}
`

// TestCmdScope checks that streamdiscipline and errclose fire under a
// cmd/* import path and stay silent under a library import path — except
// internal/fleet, where errclose (and only errclose) also applies: the
// fleet transport's response-body closes are the same dropped-error class.
func TestCmdScope(t *testing.T) {
	azs := []*Analyzer{Streamdiscipline, Errclose}
	for _, tc := range []struct {
		importPath string
		wantDiags  int
	}{
		{"example.com/cmd/scope", 2},
		{"example.com/internal/scope", 0},
		{"example.com/internal/fleet", 1},
	} {
		f, err := parser.ParseFile(fixtureFset, tc.importPath+"/p.go", scopeSrc, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := Check(fixtureFset, fixtureImporter(), tc.importPath, []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		diags := RunAnalyzers(azs, pkg)
		if len(diags) != tc.wantDiags {
			t.Errorf("%s: got %d diagnostics, want %d: %v", tc.importPath, len(diags), tc.wantDiags, diags)
		}
	}
}
