package flex_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	flex "github.com/flex-eda/flex"
)

// flexHeavyJobs builds a batch dominated by FLEX jobs plus one job per
// CPU-only baseline, all over pre-generated shared layouts so workers hit
// the device phase immediately.
func flexHeavyJobs(t *testing.T, flexJobs int) []flex.BatchJob {
	t.Helper()
	layout, err := flex.GenerateCustom(600, 0.55, 11)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []flex.BatchJob
	for i := 0; i < flexJobs; i++ {
		jobs = append(jobs, flex.BatchJob{
			Layout: layout, Engine: flex.EngineFLEX, Tag: fmt.Sprintf("flex-%d", i),
		})
	}
	jobs = append(jobs,
		flex.BatchJob{Layout: layout, Engine: flex.EngineMGL, Tag: "mgl"},
		flex.BatchJob{Layout: layout, Engine: flex.EngineMGLMT, Tag: "mgl-mt"},
		flex.BatchJob{Layout: layout, Engine: flex.EngineGPU, Tag: "gpu"},
		flex.BatchJob{Layout: layout, Engine: flex.EngineAnalytical, Tag: "analytical"},
	)
	return jobs
}

// layoutBytes serializes every successful outcome, so determinism checks
// compare actual result bytes, not just summary metrics.
func layoutBytes(t *testing.T, sum *flex.BatchSummary) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range sum.Results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Tag, r.Err)
		}
		fmt.Fprintf(&buf, "# %s %.9f %.9f\n", r.Tag, r.Outcome.Metrics.AveDis, r.Outcome.ModeledSeconds)
		if err := flex.WriteLayout(&buf, r.Outcome.Layout); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLegalizeBatchDeterministicAcrossWorkersAndFPGAs is the acceptance
// gate of the device scheduler: every {workers} × {fpgas} combination must
// produce byte-identical results — the board count moves only wall-clock
// and wait statistics.
func TestLegalizeBatchDeterministicAcrossWorkersAndFPGAs(t *testing.T) {
	jobs := flexHeavyJobs(t, 4)
	var want []byte
	for _, workers := range []int{1, 4} {
		for _, fpgas := range []int{1, 2, -1} {
			sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{},
				flex.WithWorkers(workers), flex.WithFPGAs(fpgas))
			if err != nil {
				t.Fatalf("workers=%d fpgas=%d: %v", workers, fpgas, err)
			}
			got := layoutBytes(t, sum)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d fpgas=%d: results not byte-identical to baseline", workers, fpgas)
			}
		}
	}
}

// TestLegalizeBatchDeviceContention checks the scheduling behaviour itself:
// concurrent FLEX jobs on a single modeled board serialize (device wait
// shows up) while CPU-only jobs keep overlapping, and only FLEX jobs hold
// the board: the engine table's FPGA flag is set for FLEX alone.
func TestLegalizeBatchDeviceContention(t *testing.T) {
	jobs := flexHeavyJobs(t, 6)
	// Goroutine interleaving decides how much wait each run observes; with
	// 4 workers racing 6 FLEX jobs onto 1 board a zero-wait run is
	// practically impossible, but retry to keep the test unflakable.
	for attempt := 0; attempt < 5; attempt++ {
		sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{},
			flex.WithWorkers(4), flex.WithFPGAs(1))
		if err != nil {
			t.Fatal(err)
		}
		if sum.FPGAs != 1 {
			t.Fatalf("summary FPGAs = %d, want 1", sum.FPGAs)
		}
		for _, r := range sum.Results {
			isFLEX := jobs[r.Index].Engine == flex.EngineFLEX
			if !isFLEX && (r.DeviceWait != 0 || r.DeviceHold != 0) {
				t.Fatalf("CPU-only job %s recorded device time: wait=%v hold=%v",
					r.Tag, r.DeviceWait, r.DeviceHold)
			}
			if isFLEX && r.Err == nil && r.DeviceHold <= 0 {
				t.Fatalf("FLEX job %s never held the board", r.Tag)
			}
		}
		if sum.DeviceHold <= 0 {
			t.Fatal("no board occupancy recorded")
		}
		if sum.DeviceWait > 0 {
			return // contention observed: the board is genuinely shared
		}
	}
	t.Fatal("6 concurrent FLEX jobs on 1 board never waited in 5 runs")
}

func TestLegalizeBatchStream(t *testing.T) {
	jobs := batchJobs(t)
	var callbackOrder []int
	opt := flex.SubmitOptions{
		OnResult: func(r flex.BatchResult) {
			// OnResult fires from the relay goroutine before each send.
			callbackOrder = append(callbackOrder, r.Index)
		},
	}
	svc := flex.NewService(flex.WithWorkers(3))
	defer svc.Close()
	ch, err := svc.Stream(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var streamOrder []int
	for r := range ch {
		if seen[r.Index] {
			t.Fatalf("job %d streamed twice", r.Index)
		}
		seen[r.Index] = true
		streamOrder = append(streamOrder, r.Index)
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Tag, r.Err)
		}
		if r.Tag != jobs[r.Index].Tag {
			t.Fatalf("job %d: tag %q, want %q", r.Index, r.Tag, jobs[r.Index].Tag)
		}
		if !r.Outcome.Legal {
			t.Fatalf("job %s: illegal outcome", r.Tag)
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("stream yielded %d of %d jobs", len(seen), len(jobs))
	}
	if len(callbackOrder) != len(streamOrder) {
		t.Fatalf("OnResult fired %d times for %d streamed results", len(callbackOrder), len(streamOrder))
	}
	for i := range streamOrder {
		if callbackOrder[i] != streamOrder[i] {
			t.Fatalf("OnResult order %v diverges from stream order %v", callbackOrder, streamOrder)
		}
	}
}

func TestLegalizeBatchStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := batchJobs(t)
	svc := flex.NewService(flex.WithWorkers(2))
	defer svc.Close()
	ch, err := svc.Stream(ctx, jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, skipped := 0, 0
	for r := range ch {
		n++
		if flex.IsBatchSkipped(r.Err) {
			skipped++
		}
	}
	if n != len(jobs) {
		t.Fatalf("canceled stream yielded %d of %d results", n, len(jobs))
	}
	if skipped != len(jobs) {
		t.Fatalf("%d of %d results marked skipped", skipped, len(jobs))
	}
}

func TestLegalizeBatchOnResult(t *testing.T) {
	jobs := flexHeavyJobs(t, 2)
	var streamed int
	sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{
		OnResult: func(r flex.BatchResult) { streamed++ },
	}, flex.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(jobs) {
		t.Fatalf("OnResult fired %d times, want %d", streamed, len(jobs))
	}
	if len(sum.Results) != len(jobs) {
		t.Fatalf("summary holds %d results, want %d", len(sum.Results), len(jobs))
	}
}
