package flex_test

import (
	"context"
	"fmt"
	"sort"

	flex "github.com/flex-eda/flex"
)

// ExampleService_Submit runs a small two-engine batch on a long-lived
// Service — the serving deployment unit owning the worker pool, the modeled
// FPGA board, and the layout cache.
func ExampleService_Submit() {
	svc := flex.NewService(flex.WithWorkers(2), flex.WithCacheBytes(32<<20))
	defer svc.Close()

	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Tag: "flex"},
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineMGL, Tag: "mgl"},
	}
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		fmt.Println("submit:", err)
		return
	}
	for _, r := range sum.Results { // submission order, always
		fmt.Printf("%s: legal=%v movable=%d\n", r.Tag, r.Outcome.Legal, r.Outcome.Metrics.Movable)
	}
	st := svc.Stats()
	fmt.Printf("jobs=%d cache misses=%d hits=%d\n", st.Jobs, st.CacheMisses, st.CacheHits)
	// Output:
	// flex: legal=true movable=306
	// mgl: legal=true movable=306
	// jobs=2 cache misses=1 hits=1
}

// ExampleService_Stream consumes results in completion order and reorders
// them by Index — the streaming shape servers and CLIs use for live
// progress.
func ExampleService_Stream() {
	layout, err := flex.GenerateCustom(400, 0.5, 1)
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	svc := flex.NewService(flex.WithWorkers(2))
	defer svc.Close()

	jobs := []flex.BatchJob{
		{Layout: layout, Engine: flex.EngineMGL, Tag: "mgl"},
		{Layout: layout, Engine: flex.EngineAnalytical, Tag: "analytical"},
	}
	ch, err := svc.Stream(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		fmt.Println("stream:", err)
		return
	}
	var done []flex.BatchResult
	for r := range ch {
		done = append(done, r) // completion order
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Index < done[j].Index })
	for _, r := range done {
		fmt.Printf("%s: legal=%v\n", r.Tag, r.Outcome.Legal)
	}
	// Output:
	// mgl: legal=true
	// analytical: legal=true
}

// Example_shardedJob splits one design into horizontal row bands that
// legalize as independent jobs and stitch back into a single whole-die
// result — the path that fits paper-scale designs through bounded workers.
func Example_shardedJob() {
	svc := flex.NewService(flex.WithWorkers(2))
	defer svc.Close()

	job := flex.BatchJob{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 3}
	sum, err := svc.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		fmt.Println("submit:", err)
		return
	}
	r := sum.Results[0]
	fmt.Printf("bands=%d legal=%v movable=%d\n", len(r.Shards), r.Outcome.Legal, r.Outcome.Metrics.Movable)
	for _, band := range r.Shards { // per-band results, bottom to top
		fmt.Printf("band %d: legal=%v movable=%d\n", band.Index, band.Outcome.Legal, band.Outcome.Metrics.Movable)
	}
	// Output:
	// bands=3 legal=true movable=306
	// band 0: legal=true movable=112
	// band 1: legal=true movable=108
	// band 2: legal=true movable=86
}
