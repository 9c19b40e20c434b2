package flex_test

import (
	"runtime"
	"testing"
)

// TestBaselineAllocationCeilings caps what one run of each Table 1 engine
// allocates on BenchmarkEngines' 600-cell input, through the public API.
// The engines keep their regions, FOP scratch, row-solver and sort buffers
// for the whole run, so an engine that goes back to building them per
// target or per iteration blows the ceiling many times over.
func TestBaselineAllocationCeilings(t *testing.T) {
	l, err := genLayout()
	if err != nil {
		t.Fatal(err)
	}
	const maxBytes, maxObjects = 1 << 20, 10_000
	for _, c := range []struct {
		name string
		run  func() bool
	}{
		{"FLEX", func() bool { return legalizeFLEX(l) }},
		{"MGL-seq", func() bool { return legalizeMGL(l, 1) }},
		{"MGL-8T", func() bool { return legalizeMGL(l, 8) }},
		{"GPU", func() bool { return legalizeGPU(l) }},
		{"Analytical", func() bool { return legalizeAnalytical(l) }},
	} {
		bytes, objects := allocsPerRun(3, func() {
			if !c.run() {
				t.Fatalf("%s: illegal result", c.name)
			}
		})
		t.Logf("%s: %d B/run, %d allocs/run", c.name, bytes, objects)
		if bytes > maxBytes || objects > maxObjects {
			t.Errorf("%s allocates %d B and %d objects per run; the ceiling is %d B and %d objects",
				c.name, bytes, objects, maxBytes, maxObjects)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: after one
// warm-up call it averages the heap bytes and objects of runs calls, on one
// P as AllocsPerRun does.
func allocsPerRun(runs int, f func()) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.TotalAlloc - before.TotalAlloc) / n, (after.Mallocs - before.Mallocs) / n
}
