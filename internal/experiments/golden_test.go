package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/benchjson"
)

var update = flag.Bool("update", false, "rewrite testdata/drivers.golden from the current drivers")

// goldenPath holds every driver's rendered output at the tiny scale,
// followed by the benchjson records the recording drivers emit.
var goldenPath = filepath.Join("testdata", "drivers.golden")

// renderAllDrivers runs every driver at the tiny scale on one shared
// service, in flexbench's section format, and appends the canonical
// benchjson document of the recording drivers (table1, sched, eco,
// sharded).
func renderAllDrivers(t *testing.T) string {
	t.Helper()
	svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1))
	defer svc.Close()
	bench := benchjson.New(benchjson.Env{}, benchjson.Config{})
	var out strings.Builder
	section := func(name string, record bool, f func(Options) error) {
		o := tiny
		o.Service = svc
		if record {
			o.Bench = bench.Experiment(name)
		}
		fmt.Fprintf(&out, "==> %s\n", name)
		if err := f(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out.WriteString("\n")
	}
	section("table1", true, func(o Options) error {
		rows, err := Table1(o)
		if err == nil {
			RenderTable1(rows).Render(&out)
		}
		return err
	})
	section("table2", false, func(Options) error {
		Table2().Render(&out)
		return nil
	})
	section("fig2a", false, func(o Options) error {
		pts, err := Fig2a(o)
		if err == nil {
			RenderFig2a(pts).Render(&out, 40)
		}
		return err
	})
	section("fig2b", false, func(o Options) error {
		pts, err := Fig2b(o)
		if err == nil {
			RenderFig2b(pts).Render(&out, 40)
		}
		return err
	})
	section("fig2c", false, func(o Options) error {
		pts, err := Fig2c(o)
		if err == nil {
			RenderFig2c(pts).Render(&out)
		}
		return err
	})
	section("fig2g", false, func(o Options) error {
		pts, err := Fig2g(o)
		if err == nil {
			RenderFig2g(pts).Render(&out, 40)
		}
		return err
	})
	section("fig6g", false, func(o Options) error {
		pts, err := Fig6g(o)
		if err == nil {
			RenderFig6g(pts).Render(&out)
		}
		return err
	})
	section("fig8", false, func(o Options) error {
		pts, err := Fig8(o)
		if err == nil {
			RenderFig8(pts).Render(&out)
		}
		return err
	})
	section("fig8 measure-original", false, func(o Options) error {
		o.MeasureOriginal = true
		pts, err := Fig8(o)
		if err == nil {
			RenderFig8(pts).Render(&out)
		}
		return err
	})
	section("fig9", false, func(o Options) error {
		pts, err := Fig9(o)
		if err == nil {
			RenderFig9(pts).Render(&out)
		}
		return err
	})
	section("fig10", false, func(o Options) error {
		pts, err := Fig10(o)
		if err == nil {
			RenderFig10(pts).Render(&out, 40)
		}
		return err
	})
	section("scalability", false, func(o Options) error {
		pts, err := Scalability(o, 5)
		if err == nil {
			RenderScalability(pts).Render(&out)
		}
		return err
	})
	section("ordering", false, func(o Options) error {
		pts, err := OrderingAblation(o)
		if err == nil {
			RenderOrdering(pts).Render(&out)
		}
		return err
	})
	section("sched", true, func(o Options) error {
		pts, err := Sched(o, 2)
		if err == nil {
			RenderSched(pts).Render(&out)
		}
		return err
	})
	section("eco", true, func(o Options) error {
		pts, err := Eco(o, 2, 1, 2)
		if err == nil {
			RenderEco(pts).Render(&out)
		}
		return err
	})
	section("sharded", true, func(o Options) error {
		pts, err := Sharded(o, 3, 2)
		if err == nil {
			RenderSharded(pts).Render(&out)
		}
		return err
	})
	if err := bench.Write(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestGoldenDriverOutput pins every driver's stdout and benchjson bytes.
// It is the parity check of a driver refactor: a change that moves how a
// driver runs its jobs must leave this file byte-identical. Regenerate it
// with -update only when a change is meant to move results, and say so.
//
// The bytes are amd64's. Other architectures may fuse multiply-adds (arm64
// does), which moves the last digit of some modeled figures.
func TestGoldenDriverOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := renderAllDrivers(t)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\nwant: %q\n got: %q", goldenPath, i+1, w, g)
		}
	}
}
