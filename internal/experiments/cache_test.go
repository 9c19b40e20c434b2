package experiments

import (
	"testing"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/cache"
)

// withService returns o wired to a shared service and layout cache, the
// way flexbench runs every driver of one invocation.
func withService(o Options, svc *flex.Service, layouts *cache.LRU) Options {
	o.Service = svc
	o.Layouts = layouts
	return o
}

// TestSharedPoolAndCacheByteIdenticalTables is the caching acceptance gate:
// running the drivers on one long-lived service with a warm layout cache
// must render byte-identical output to the throwaway-service, cache-off
// baseline — twice, so the second (fully warm) pass is covered too.
func TestSharedPoolAndCacheByteIdenticalTables(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(4), flex.WithFPGAs(1))
	defer svc.Close()
	layouts := cache.New(64 << 20)

	drivers := []struct {
		name string
		run  func(Options) (string, error)
	}{
		{"table1", func(o Options) (string, error) {
			rows, err := Table1(o)
			if err != nil {
				return "", err
			}
			return RenderTable1(rows).String(), nil
		}},
		{"fig2g", func(o Options) (string, error) {
			pts, err := Fig2g(o)
			if err != nil {
				return "", err
			}
			return RenderFig2g(pts).String(), nil
		}},
		{"fig10", func(o Options) (string, error) {
			pts, err := Fig10(o)
			if err != nil {
				return "", err
			}
			return RenderFig10(pts).String(), nil
		}},
	}
	for _, d := range drivers {
		baseline, err := d.run(withPool(t, tiny, 1, 0))
		if err != nil {
			t.Fatalf("%s baseline: %v", d.name, err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := d.run(withService(tiny, svc, layouts))
			if err != nil {
				t.Fatalf("%s cached pass %d: %v", d.name, pass, err)
			}
			if got != baseline {
				t.Fatalf("%s cached pass %d differs from cache-off baseline:\n--- baseline ---\n%s\n--- cached ---\n%s",
					d.name, pass, baseline, got)
			}
		}
	}
	st := layouts.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}
	// tiny selects 2 designs at one scale: every driver pass shares the
	// same 2 generations for the whole run.
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per design for the whole run)", st.Misses)
	}
}

// TestStatsSinkWithSharedPool checks that per-driver device stats stay
// per-batch deltas on a shared service: two Table1 runs each report their
// own two FLEX acquires even though the service's device history
// accumulates.
func TestStatsSinkWithSharedPool(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(4), flex.WithFPGAs(1))
	defer svc.Close()
	for i := 0; i < 2; i++ {
		var st batch.Stats
		o := withService(tiny, svc, nil)
		o.Stats = &st
		if _, err := Table1(o); err != nil {
			t.Fatal(err)
		}
		if st.DeviceAcquires != 2 {
			t.Fatalf("run %d: device acquires = %d, want per-run delta 2", i, st.DeviceAcquires)
		}
		if st.FPGAs != 1 {
			t.Fatalf("run %d: FPGAs = %d", i, st.FPGAs)
		}
	}
	if total := svc.Stats().DeviceAcquires; total != 4 {
		t.Fatalf("service lifetime acquires = %d, want 4", total)
	}
}
