package flex_test

import (
	"context"
	"errors"
	"testing"

	flex "github.com/flex-eda/flex"
)

// submitOnce runs jobs as one batch on a fresh service built from opts,
// then closes the service.
func submitOnce(ctx context.Context, jobs []flex.BatchJob, sopt flex.SubmitOptions, opts ...flex.ServiceOption) (*flex.BatchSummary, error) {
	svc := flex.NewService(opts...)
	defer svc.Close()
	return svc.Submit(ctx, jobs, sopt)
}

// batchJobs builds a small (design × engine) grid, the shape the experiment
// drivers submit.
func batchJobs(t *testing.T) []flex.BatchJob {
	t.Helper()
	var jobs []flex.BatchJob
	for _, design := range []string{"fft_a_md2", "pci_b_a_md2"} {
		for _, engine := range []flex.Engine{flex.EngineFLEX, flex.EngineMGL, flex.EngineGPU} {
			jobs = append(jobs, flex.BatchJob{
				Design: design, Scale: 0.008, Engine: engine,
				Tag: design + "/" + engine.String(),
			})
		}
	}
	return jobs
}

func TestLegalizeBatchDeterministicAcrossWorkers(t *testing.T) {
	jobs := batchJobs(t)
	var want *flex.BatchSummary
	for _, workers := range []int{1, 4} {
		sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{}, flex.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(sum.Results) != len(jobs) || sum.Errors != 0 || sum.Skipped != 0 {
			t.Fatalf("workers=%d: summary %+v", workers, sum)
		}
		for i, r := range sum.Results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d (%s): %v", workers, i, r.Tag, r.Err)
			}
			if r.Index != i || r.Tag != jobs[i].Tag {
				t.Fatalf("workers=%d: results out of submission order at %d: %+v", workers, i, r)
			}
			if !r.Outcome.Legal {
				t.Fatalf("workers=%d job %s: illegal outcome", workers, r.Tag)
			}
		}
		if want == nil {
			want = sum
			continue
		}
		// The modeled numbers must be bit-identical regardless of the
		// worker count — determinism is the whole point of modeled time.
		if sum.ModeledSeconds != want.ModeledSeconds {
			t.Fatalf("modeled seconds differ across worker counts: %v vs %v",
				sum.ModeledSeconds, want.ModeledSeconds)
		}
		for i := range sum.Results {
			a, b := sum.Results[i].Outcome, want.Results[i].Outcome
			if a.Metrics.AveDis != b.Metrics.AveDis || a.ModeledSeconds != b.ModeledSeconds {
				t.Fatalf("job %s differs across worker counts: %+v vs %+v",
					sum.Results[i].Tag, a.Metrics, b.Metrics)
			}
		}
	}
}

func TestLegalizeBatchSharedLayout(t *testing.T) {
	layout, err := flex.GenerateCustom(400, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// All engines legalize clones, so one layout can back every job.
	jobs := []flex.BatchJob{
		{Layout: layout, Engine: flex.EngineFLEX},
		{Layout: layout, Engine: flex.EngineMGL},
		{Layout: layout, Engine: flex.EngineAnalytical},
	}
	sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{}, flex.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Results {
		if r.Err != nil || !r.Outcome.Legal {
			t.Fatalf("job %d: err=%v outcome=%+v", r.Index, r.Err, r.Outcome)
		}
	}
	if sum.ModeledSeconds <= 0 {
		t.Fatalf("modeled seconds %v", sum.ModeledSeconds)
	}
}

func TestLegalizeBatchErrorIsolation(t *testing.T) {
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineFLEX},
		{Design: "no_such_design", Scale: 0.008, Engine: flex.EngineFLEX},
		{Design: "pci_b_a_md2", Scale: 0.008, Engine: flex.EngineMGL},
	}
	sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{}, flex.WithWorkers(2))
	if err != nil {
		t.Fatalf("isolated failure escalated to batch error: %v", err)
	}
	if sum.Errors != 1 {
		t.Fatalf("errors = %d, want 1", sum.Errors)
	}
	if sum.Results[1].Err == nil || sum.Results[0].Err != nil || sum.Results[2].Err != nil {
		t.Fatalf("wrong job blamed: %+v", sum.Results)
	}
	if flex.IsBatchSkipped(sum.Results[1].Err) {
		t.Fatal("a job that ran and failed must not read as skipped")
	}
}

func TestLegalizeBatchFailFast(t *testing.T) {
	jobs := []flex.BatchJob{{Design: "no_such_design", Engine: flex.EngineFLEX}}
	for i := 0; i < 30; i++ {
		jobs = append(jobs, flex.BatchJob{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineFLEX})
	}
	sum, err := submitOnce(context.Background(), jobs, flex.SubmitOptions{FailFast: true}, flex.WithWorkers(1))
	if err == nil {
		t.Fatal("fail-fast batch returned nil error")
	}
	if sum.Skipped == 0 {
		t.Fatal("fail-fast batch skipped nothing")
	}
	skipped := 0
	for _, r := range sum.Results {
		if flex.IsBatchSkipped(r.Err) {
			skipped++
		}
	}
	if skipped != sum.Skipped {
		t.Fatalf("summary counts %d skipped, results carry %d", sum.Skipped, skipped)
	}
}

func TestLegalizeBatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := batchJobs(t)
	sum, err := submitOnce(ctx, jobs, flex.SubmitOptions{}, flex.WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.Skipped != len(jobs) {
		t.Fatalf("skipped = %d, want all %d", sum.Skipped, len(jobs))
	}
}
