package experiments

import (
	"testing"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/batch"
)

// withPool returns o submitting to a fresh service with the given worker
// and modeled FPGA board counts, closed when the test ends.
func withPool(t testing.TB, o Options, workers, fpgas int) Options {
	svc := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas))
	t.Cleanup(func() { svc.Close() })
	o.Service = svc
	return o
}

// TestWorkersByteIdenticalTables is the acceptance gate of the concurrent
// runner: every driver must render byte-identical output at 1 worker and at
// N workers, and at any modeled FPGA board count. Workers and boards may
// only change wall-clock and wait statistics, never results.
func TestWorkersByteIdenticalTables(t *testing.T) {
	type render struct {
		name string
		run  func(Options) (string, error)
	}
	drivers := []render{
		{"table1", func(o Options) (string, error) {
			rows, err := Table1(o)
			if err != nil {
				return "", err
			}
			return RenderTable1(rows).String(), nil
		}},
		{"fig2a", func(o Options) (string, error) {
			pts, err := Fig2a(o)
			if err != nil {
				return "", err
			}
			return RenderFig2a(pts).String(), nil
		}},
		{"fig2g", func(o Options) (string, error) {
			pts, err := Fig2g(o)
			if err != nil {
				return "", err
			}
			return RenderFig2g(pts).String(), nil
		}},
		{"fig8", func(o Options) (string, error) {
			pts, err := Fig8(o)
			if err != nil {
				return "", err
			}
			return RenderFig8(pts).String(), nil
		}},
		{"fig10", func(o Options) (string, error) {
			pts, err := Fig10(o)
			if err != nil {
				return "", err
			}
			return RenderFig10(pts).String(), nil
		}},
		{"ordering", func(o Options) (string, error) {
			pts, err := OrderingAblation(o)
			if err != nil {
				return "", err
			}
			return RenderOrdering(pts).String(), nil
		}},
		{"scalability", func(o Options) (string, error) {
			pts, err := Scalability(o, 4)
			if err != nil {
				return "", err
			}
			return RenderScalability(pts).String(), nil
		}},
		// Eco's incremental service copies Options.Service's worker and
		// board counts, so the grid covers both of its services.
		{"eco", func(o Options) (string, error) {
			pts, err := Eco(o, 2, 1, 2)
			if err != nil {
				return "", err
			}
			return RenderEco(pts).String(), nil
		}},
	}
	grid := []struct {
		workers, fpgas int
	}{
		{4, 1},  // paper's host: many workers, one board
		{4, 2},  // two boards
		{4, -1}, // unlimited boards (no device modeling)
		{1, 1},  // serial with a board still attached
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			serial, err := d.run(withPool(t, tiny, 1, 0))
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range grid {
				parallel, err := d.run(withPool(t, tiny, g.workers, g.fpgas))
				if err != nil {
					t.Fatal(err)
				}
				if serial != parallel {
					t.Fatalf("%s output differs between workers=1 and workers=%d/fpgas=%d:\n--- workers=1 ---\n%s\n--- variant ---\n%s",
						d.name, g.workers, g.fpgas, serial, parallel)
				}
			}
		})
	}
}

// TestStatsSinkObservesDeviceScheduling checks the Options.Stats plumbing:
// a Table1 run over the shared board records worker count, board occupancy
// by the FLEX jobs, and — the overlap argument — summed job wall at least
// at batch wall.
func TestStatsSinkObservesDeviceScheduling(t *testing.T) {
	var st batch.Stats
	o := withPool(t, tiny, 4, 1)
	o.Stats = &st
	if _, err := Table1(o); err != nil {
		t.Fatal(err)
	}
	if st.Jobs == 0 || st.Workers != 4 {
		t.Fatalf("stats sink missed the batch: %+v", st)
	}
	if st.FPGAs != 1 {
		t.Fatalf("FPGAs = %d, want 1", st.FPGAs)
	}
	// tiny has 2 designs × 1 FLEX job each: both must have held the board.
	if st.DeviceAcquires != 2 {
		t.Fatalf("device acquires = %d, want 2 (one per FLEX job)", st.DeviceAcquires)
	}
	if st.DeviceHold <= 0 {
		t.Fatal("no board occupancy recorded")
	}
	if st.WorkWall < st.Wall {
		t.Fatalf("summed job wall %v below batch wall %v", st.WorkWall, st.Wall)
	}
}
