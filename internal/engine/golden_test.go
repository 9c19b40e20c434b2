package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/model"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from the current engines")

const resultsGolden = "testdata/results.golden"

// goldenInputs are the pinned inputs: each shape table1_mix serves, at
// about its cell count, and one dense des_perf_1-shaped input, the kind
// that sends MGL-MT and the GPU engine down their redo paths and the
// analytical engine through its repair pass.
var goldenInputs = []struct {
	shape string
	cells int
	seed  int64
}{
	{"pci_b_a_md2", 500, 11},
	{"edit_dist_a_md3", 480, 12},
	{"fft_a_md2", 520, 13},
	{"pci_b_b_md2", 500, 14},
	{"pci_b_a_md1", 460, 15},
	{"des_perf_1", 500, 16},
}

func goldenLayout(t *testing.T, shape string, cells int, seed int64) *model.Layout {
	t.Helper()
	spec, ok := gen.ByName(shape)
	if !ok {
		t.Fatalf("unknown shape %q", shape)
	}
	spec.Seed = seed
	l, err := spec.Generate(float64(cells) / float64(spec.NumCells))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// resultLine renders one run as the golden file pins it: the sha256 of the
// result's canonical flexpl bytes, the bits of its modeled seconds, and
// every op counter in key order.
func resultLine(t *testing.T, name string, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.Encode(&buf, r.Layout); err != nil {
		t.Fatal(err)
	}
	ops := r.Ops()
	keys := make([]string, 0, len(ops))
	for k := range ops {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s sha256=%x modeled=%#016x legal=%v ops:", name, sha256.Sum256(buf.Bytes()), math.Float64bits(r.ModeledSeconds), r.Legal)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, ops[k])
	}
	return b.String()
}

// TestGoldenEngineResults pins every engine's result on fixed inputs: the
// placed cells' bytes, the op counts and the modeled seconds. It guards
// host-side rewrites of the engines (buffer reuse, typed sorts) that must
// move no result, including the paths only crowded inputs reach, which the
// test asserts it covers.
func TestGoldenEngineResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	var lines []string
	var mtDeferred, gpuDeferred, repaired int64
	for _, in := range goldenInputs {
		l := goldenLayout(t, in.shape, in.cells, in.seed)
		for k := range table {
			r, err := Run(context.Background(), Kind(k), l, Options{})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%d/%d %s", in.shape, in.cells, in.seed, table[k].Name)
			lines = append(lines, resultLine(t, name, r))
			ops := r.Ops()
			gpuDeferred += ops["gpu.deferred"]
			if Kind(k) == Analytical {
				repaired += ops["repaired"]
			}
		}
		// MGL-MT's redo count is not an op counter; read it from the
		// engine's own stats under runMGLMT's configuration.
		mtDeferred += mgl.Legalize(l, mgl.Config{Threads: 8}).Stats.Deferred
	}
	if mtDeferred == 0 || gpuDeferred == 0 || repaired == 0 {
		t.Errorf("inputs miss a redo path: MGL-MT deferred %d, GPU deferred %d, analytical repaired %d",
			mtDeferred, gpuDeferred, repaired)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(resultsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, g := range lines {
		if i >= len(wantLines) {
			t.Fatalf("%s: extra line %d: %q", resultsGolden, i+1, g)
		}
		if g != wantLines[i] {
			t.Errorf("%s differs at line %d:\nwant: %q\n got: %q", resultsGolden, i+1, wantLines[i], g)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("%s has %d lines, the engines produced %d", resultsGolden, len(wantLines), len(lines))
	}
}
