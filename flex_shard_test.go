package flex_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	flex "github.com/flex-eda/flex"
)

// encodeLayout renders a layout in flexpl text for byte-identity checks.
func encodeLayout(t *testing.T, l *flex.Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := flex.WriteLayout(&buf, l); err != nil {
		t.Fatalf("WriteLayout: %v", err)
	}
	return buf.Bytes()
}

// TestShardsOneByteIdenticalToUnsharded is the shards=1 determinism gate:
// a single-band job runs the full split/stitch machinery and must still
// produce the exact layout, metrics, legality, and modeled seconds of the
// plain path, for every engine.
func TestShardsOneByteIdenticalToUnsharded(t *testing.T) {
	l, err := flex.GenerateCustom(900, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []flex.Engine{flex.EngineFLEX, flex.EngineMGL} {
		want, err := flex.LegalizeWith(l, engine, flex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := flex.LegalizeBatch(context.Background(),
			[]flex.BatchJob{{Layout: l, Engine: engine, Shards: 1}}, flex.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := sum.Results[0]
		if r.Err != nil {
			t.Fatalf("%v: sharded job failed: %v", engine, r.Err)
		}
		if len(r.Shards) != 1 {
			t.Fatalf("%v: got %d shard results, want 1", engine, len(r.Shards))
		}
		got := r.Outcome
		if !bytes.Equal(encodeLayout(t, want.Layout), encodeLayout(t, got.Layout)) {
			t.Fatalf("%v: shards=1 layout differs from unsharded", engine)
		}
		if want.Metrics != got.Metrics {
			t.Fatalf("%v: metrics differ: unsharded %+v, shards=1 %+v", engine, want.Metrics, got.Metrics)
		}
		if want.Legal != got.Legal || want.ModeledSeconds != got.ModeledSeconds ||
			len(want.Violations) != len(got.Violations) {
			t.Fatalf("%v: outcome fields differ: legal %v/%v modeled %v/%v violations %d/%d",
				engine, want.Legal, got.Legal, want.ModeledSeconds, got.ModeledSeconds,
				len(want.Violations), len(got.Violations))
		}
	}
}

// TestShardedDeterministicAcrossWorkersAndFPGAs: for a fixed shard count,
// the stitched result must be byte-identical however the band jobs are
// scheduled — the sharded leg of the repo's standing determinism contract.
func TestShardedDeterministicAcrossWorkersAndFPGAs(t *testing.T) {
	var want []byte
	var wantMetrics flex.Metrics
	for _, workers := range []int{1, 4} {
		for _, fpgas := range []int{1, 2} {
			sum, err := flex.LegalizeBatch(context.Background(),
				[]flex.BatchJob{{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 3}},
				flex.BatchOptions{Workers: workers, FPGAs: fpgas})
			if err != nil {
				t.Fatal(err)
			}
			r := sum.Results[0]
			if r.Err != nil {
				t.Fatalf("workers=%d fpgas=%d: %v", workers, fpgas, r.Err)
			}
			enc := encodeLayout(t, r.Outcome.Layout)
			if want == nil {
				want, wantMetrics = enc, r.Outcome.Metrics
				continue
			}
			if !bytes.Equal(want, enc) {
				t.Fatalf("workers=%d fpgas=%d: stitched layout differs", workers, fpgas)
			}
			if wantMetrics != r.Outcome.Metrics {
				t.Fatalf("workers=%d fpgas=%d: metrics differ", workers, fpgas)
			}
		}
	}
}

// TestShardedJobStitchesLegalResult: a multi-band FLEX job must produce a
// legal whole-die layout with per-band results exposed, and the merged
// modeled seconds must be the slowest band's.
func TestShardedJobStitchesLegalResult(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2))
	defer svc.Close()
	var shardCalls int
	sum, err := svc.Submit(context.Background(),
		[]flex.BatchJob{{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 3, Tag: "big"}},
		flex.SubmitOptions{OnShard: func(job int, r flex.BatchResult) {
			if job != 0 {
				t.Errorf("OnShard job = %d, want 0", job)
			}
			shardCalls++
		}})
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Tag != "big" {
		t.Fatalf("tag = %q", r.Tag)
	}
	if len(r.Shards) != 3 || shardCalls != 3 {
		t.Fatalf("got %d shard results, %d OnShard calls, want 3/3", len(r.Shards), shardCalls)
	}
	if !r.Outcome.Legal {
		t.Fatalf("stitched result illegal: %v", r.Outcome.Violations)
	}
	var maxModeled float64
	for i, sr := range r.Shards {
		if sr.Index != i {
			t.Fatalf("shard %d has Index %d", i, sr.Index)
		}
		if sr.Err != nil || sr.Outcome == nil {
			t.Fatalf("shard %d: err=%v", i, sr.Err)
		}
		if !sr.Outcome.Legal {
			t.Fatalf("shard %d illegal", i)
		}
		if sr.Outcome.ModeledSeconds > maxModeled {
			maxModeled = sr.Outcome.ModeledSeconds
		}
	}
	if r.Outcome.ModeledSeconds != maxModeled {
		t.Fatalf("merged modeled seconds %v, want slowest band %v", r.Outcome.ModeledSeconds, maxModeled)
	}
	if st := svc.Stats(); st.ShardedJobs != 1 {
		t.Fatalf("ShardedJobs = %d, want 1", st.ShardedJobs)
	}
}

// TestShardedTelemetrySumsBands pins BatchResult's contract for sharded
// jobs: queue wait, board wait and hold, and reconfigurations are each the
// sum over the job's bands.
func TestShardedTelemetrySumsBands(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2), flex.WithFPGAs(1),
		flex.WithReconfigCost(time.Millisecond))
	defer svc.Close()
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 3},
		{Design: "pci_b_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 2},
	}
	sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reconfigs, queued := 0, time.Duration(0)
	for j, r := range sum.Results {
		if r.Err != nil || len(r.Shards) != jobs[j].Shards {
			t.Fatalf("job %d: err=%v, %d shards", j, r.Err, len(r.Shards))
		}
		var want flex.BatchResult
		for _, sr := range r.Shards {
			want.SchedWait += sr.SchedWait
			want.DeviceWait += sr.DeviceWait
			want.DeviceHold += sr.DeviceHold
			want.DeviceReconfigs += sr.DeviceReconfigs
		}
		if r.SchedWait != want.SchedWait || r.DeviceWait != want.DeviceWait ||
			r.DeviceHold != want.DeviceHold || r.DeviceReconfigs != want.DeviceReconfigs {
			t.Fatalf("job %d: got sched %v wait %v hold %v reconfigs %d, band sums %v %v %v %d", j,
				r.SchedWait, r.DeviceWait, r.DeviceHold, r.DeviceReconfigs,
				want.SchedWait, want.DeviceWait, want.DeviceHold, want.DeviceReconfigs)
		}
		if r.DeviceReconfigs == 0 {
			t.Fatalf("job %d: no reconfigurations; each job's first band programs the board", j)
		}
		reconfigs += r.DeviceReconfigs
		queued += r.SchedWait
	}
	if queued <= 0 {
		t.Fatal("no band recorded any queue wait")
	}
	if st := svc.Stats(); st.Reconfigs != reconfigs {
		t.Fatalf("service counted %d reconfigs, jobs carry %d", st.Reconfigs, reconfigs)
	}
}

// TestShardsClampedToDie: asking for far more bands than the die has rows
// degrades to the feasible band count instead of failing, and the padding
// band slots never surface in the result.
func TestShardsClampedToDie(t *testing.T) {
	l, err := flex.GenerateCustom(80, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := flex.LegalizeBatch(context.Background(),
		[]flex.BatchJob{{Layout: l, Engine: flex.EngineMGL, Shards: 500}}, flex.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Shards) == 0 || len(r.Shards) >= 500 {
		t.Fatalf("got %d effective shards", len(r.Shards))
	}
	if !r.Outcome.Legal {
		t.Fatalf("stitched result illegal: %v", r.Outcome.Violations)
	}
}

// TestServiceDefaultAndAutoSharding: WithShards shards jobs that don't ask,
// a negative job knob opts out, and WithAutoShardBytes splits any job whose
// estimated footprint exceeds the threshold.
func TestServiceDefaultAndAutoSharding(t *testing.T) {
	l, err := flex.GenerateCustom(600, 0.55, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc := flex.NewService(flex.WithWorkers(2), flex.WithShards(2))
	defer svc.Close()
	sum, err := svc.Submit(context.Background(), []flex.BatchJob{
		{Layout: l, Engine: flex.EngineMGL},             // inherits WithShards(2)
		{Layout: l, Engine: flex.EngineMGL, Shards: -1}, // explicitly unsharded
	}, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sum.Results[0].Shards); got != 2 {
		t.Fatalf("default-sharded job: %d shards, want 2", got)
	}
	if got := len(sum.Results[1].Shards); got != 0 {
		t.Fatalf("opted-out job still sharded %d ways", got)
	}

	auto := flex.NewService(flex.WithWorkers(2), flex.WithAutoShardBytes(l.ApproxBytes()/3+1))
	defer auto.Close()
	asum, err := auto.Submit(context.Background(),
		[]flex.BatchJob{{Layout: l, Engine: flex.EngineMGL}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(asum.Results[0].Shards); got < 2 {
		t.Fatalf("auto-sharding split into %d bands, want >= 2", got)
	}
	if !asum.Results[0].Outcome.Legal {
		t.Fatal("auto-sharded result illegal")
	}
}

// TestShardedStreamDeliversStitchedResults: the streaming path folds bands
// the same way, one channel send per submitted job.
func TestShardedStreamDeliversStitchedResults(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(2))
	defer svc.Close()
	jobs := []flex.BatchJob{
		{Design: "fft_a_md2", Scale: 0.008, Engine: flex.EngineMGL, Shards: 2},
		{Design: "pci_b_a_md2", Scale: 0.008, Engine: flex.EngineMGL},
	}
	ch, err := svc.Stream(context.Background(), jobs, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]flex.BatchResult{}
	for r := range ch {
		seen[r.Index] = r
	}
	if len(seen) != 2 {
		t.Fatalf("got %d results, want 2", len(seen))
	}
	if got := len(seen[0].Shards); got != 2 {
		t.Fatalf("sharded stream job: %d shards, want 2", got)
	}
	if got := len(seen[1].Shards); got != 0 {
		t.Fatalf("plain stream job reported %d shards", got)
	}
	for i, r := range seen {
		if r.Err != nil || r.Outcome == nil || !r.Outcome.Legal {
			t.Fatalf("job %d: err=%v", i, r.Err)
		}
	}
}
