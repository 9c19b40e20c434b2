package flex_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/fleet"
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

// TestShardsOneByteIdenticalToUnsharded is the shards=1 determinism gate,
// grown into a pin of the whole job pipeline: every job runs as K >= 1 bands
// through one pool closure, one executor and one fold, so a single-band
// job must produce the exact layout, metrics, legality, and modeled seconds
// of the plain engine run for every engine, and every cell of
// {unsharded, shards=1, shards=3} x {local, coordinator} x {outcome cache
// off, cold, warm} x {no edit, one in-halo move} must match the local
// cacheless run of the same decomposition, with the counters each path
// moves pinned.
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
		sum, err := submitOnce(context.Background(),
			[]flex.BatchJob{{Layout: l, Engine: engine, Shards: 1}}, flex.SubmitOptions{})
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
		requireSameOutcome(t, engine.String()+" shards=1 vs engine",
			flex.BatchResult{Outcome: want}, r)
	}

	const design, scale = "fft_a_md2", 0.01
	base, err := flex.Generate(design, scale)
	if err != nil {
		t.Fatal(err)
	}
	move := inHaloEdits(t, base, 1, 1, rand.New(rand.NewSource(5)))
	srvA, proxyA, _ := startWorker(t)
	srvB, proxyB, _ := startWorker(t)
	// wireJobs returns the jobs the workers received since the per-worker
	// counts in sent (nil: all of them), and the new counts. Counting per
	// worker matters: a submission's job may land on either worker.
	wireJobs := func(sent []int) ([]fleet.Job, []int) {
		var jobs []fleet.Job
		var counts []int
		for i, p := range []*workerProxy{proxyA, proxyB} {
			p.mu.Lock()
			from := 0
			if sent != nil {
				from = sent[i]
			}
			jobs = append(jobs, p.recorded[from:]...)
			counts = append(counts, len(p.recorded))
			p.mu.Unlock()
		}
		return jobs, counts
	}
	submit := func(t *testing.T, svc *flex.Service, job flex.BatchJob) flex.BatchResult {
		t.Helper()
		sum, err := svc.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if sum.Results[0].Err != nil {
			t.Fatalf("job failed: %v", sum.Results[0].Err)
		}
		return sum.Results[0]
	}

	for _, shards := range []int{0, 1, 3} {
		for _, edits := range [][]flex.Edit{nil, move} {
			job := flex.BatchJob{Design: design, Scale: scale, Shards: shards, Edits: edits}
			ref := flex.NewService(flex.WithWorkers(2))
			want := submit(t, ref, job)
			ref.Close()
			for _, remote := range []bool{false, true} {
				for _, cache := range []string{"off", "cold", "warm"} {
					name := fmt.Sprintf("shards=%d/edits=%d/remote=%t/cache=%s", shards, len(edits), remote, cache)
					t.Run(name, func(t *testing.T) {
						opts := []flex.ServiceOption{flex.WithWorkers(2), flex.WithCacheBytes(64 << 20), flex.WithTracing(true)}
						if remote {
							opts = append(opts, flex.WithWorkersList(srvA.URL, srvB.URL))
						}
						if cache != "off" {
							opts = append(opts, flex.WithOutcomeCacheBytes(64<<20))
						}
						svc := flex.NewService(opts...)
						defer svc.Close()
						submissions := 1
						if cache == "warm" {
							// Warm the cache with the base run of the same
							// decomposition (for an unedited job, the job itself).
							submit(t, svc, flex.BatchJob{Design: design, Scale: scale, Shards: shards})
							submissions = 2
						}
						_, sent := wireJobs(nil)
						got := submit(t, svc, job)
						requireSameOutcome(t, name, want, got)
						// An unedited unsharded design reference travels to
						// the fleet by name; every other band travels inline.
						jobs, _ := wireJobs(sent)
						for _, wj := range jobs {
							if byName := shards == 0 && edits == nil; (wj.Design != "") != byName || (wj.Layout != "") == byName {
								t.Fatalf("wire job design=%q layout=%d bytes, want by name: %t", wj.Design, len(wj.Layout), byName)
							}
						}
						pinPipelineCell(t, svc.Stats(), got, pipelineCell{
							shards: shards, edited: edits != nil, remote: remote,
							cache: cache, submissions: submissions,
						})
					})
				}
			}
		}
	}

	// The one deliberate behaviour change: concurrent identical unsharded
	// jobs on an outcome-cached service no longer single-flight — each job
	// decides on its own, as sharded jobs always did — yet every result is
	// byte-identical and every job counts exactly one hit or miss.
	t.Run("concurrent-duplicates", func(t *testing.T) {
		const n = 4
		job := flex.BatchJob{Layout: l}
		want, err := flex.LegalizeWith(l, flex.EngineFLEX, flex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := flex.NewService(flex.WithWorkers(n), flex.WithOutcomeCacheBytes(64<<20))
		defer svc.Close()
		sum, err := svc.Submit(context.Background(), []flex.BatchJob{job, job, job, job}, flex.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sum.Results {
			requireSameOutcome(t, fmt.Sprintf("duplicate %d", i), flex.BatchResult{Outcome: want}, r)
		}
		if st := svc.Stats(); st.OutcomeHits+st.OutcomeMisses != n || st.OutcomeMisses < 1 {
			t.Fatalf("outcome hits/misses = %d/%d, want %d decisions with at least one miss",
				st.OutcomeHits, st.OutcomeMisses, n)
		}
	})
}

// pipelineCell is one configuration of the job-pipeline matrix.
type pipelineCell struct {
	shards      int // 0 = unsharded
	edited      bool
	remote      bool
	cache       string // "off", "cold", "warm"
	submissions int
}

// pinPipelineCell asserts the counters and trace shape one matrix cell
// moves: outcome-cache hits and misses, incremental and fallback eco jobs,
// layout-cache misses, sharded jobs, and the span names of the job's trace.
func pinPipelineCell(t *testing.T, st flex.ServiceStats, r flex.BatchResult, c pipelineCell) {
	t.Helper()
	// Outcome-cache decisions: a cold cache misses; a warm unedited job is
	// an exact hit; a warm edited job splices only when a band stays clean,
	// which one move leaves true for three bands but never for one.
	var hits, misses, incremental, fallbacks int64
	switch c.cache {
	case "cold":
		misses = 1
	case "warm":
		misses = 1
		if !c.edited || c.shards == 3 {
			hits = 1
		} else {
			misses = 2
		}
	}
	if c.edited && c.cache != "off" {
		if hits == 1 {
			incremental = 1
		} else {
			fallbacks = 1
		}
	}
	if st.OutcomeHits != hits || st.OutcomeMisses != misses ||
		st.Incremental != incremental || st.Fallbacks != fallbacks {
		t.Fatalf("outcome hits/misses/incremental/fallbacks = %d/%d/%d/%d, want %d/%d/%d/%d",
			st.OutcomeHits, st.OutcomeMisses, st.Incremental, st.Fallbacks,
			hits, misses, incremental, fallbacks)
	}
	// Layout-cache misses: the design generates once per service, except
	// that a coordinator sends an unedited unsharded reference by name
	// when it needs no content hash; an unedited sharded run also memoizes
	// its decomposition.
	layoutMisses := int64(1)
	if c.remote && c.shards == 0 && !c.edited && c.cache == "off" {
		layoutMisses = 0
	}
	if c.shards > 0 && (!c.edited || c.cache == "warm") {
		layoutMisses++
	}
	if st.CacheMisses != layoutMisses {
		t.Fatalf("layout cache misses = %d, want %d", st.CacheMisses, layoutMisses)
	}
	sharded := int64(0)
	if c.shards > 0 {
		sharded = int64(c.submissions)
	}
	if st.ShardedJobs != sharded || len(r.Shards) != c.shards {
		t.Fatalf("sharded jobs = %d with %d shard results, want %d with %d",
			st.ShardedJobs, len(r.Shards), sharded, c.shards)
	}
	// The job's own spans (remote bands nest the worker's legalize span
	// below their band span).
	spans := map[string]bool{}
	for _, sp := range r.Spans {
		spans[sp.Name] = true
	}
	if unsharded := c.shards == 0; spans["legalize"] != unsharded || spans["stitch"] == unsharded {
		t.Fatalf("top-level spans %v: want legalize and no stitch exactly when unsharded", spans)
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
			sum, err := submitOnce(context.Background(),
				[]flex.BatchJob{{Design: "fft_a_md2", Scale: 0.01, Engine: flex.EngineFLEX, Shards: 3}},
				flex.SubmitOptions{}, flex.WithWorkers(workers), flex.WithFPGAs(fpgas))
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
	sum, err := submitOnce(context.Background(),
		[]flex.BatchJob{{Layout: l, Engine: flex.EngineMGL, Shards: 500}}, flex.SubmitOptions{})
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

// TestServiceDefaultAndAutoSharding: a job that leaves Shards at 0 stays
// unsharded by default, WithAutoShardBytes splits any such job whose
// estimated footprint exceeds the threshold, and a negative job knob opts
// out of auto-sharding.
func TestServiceDefaultAndAutoSharding(t *testing.T) {
	l, err := flex.GenerateCustom(600, 0.55, 4)
	if err != nil {
		t.Fatal(err)
	}
	plain := flex.NewService(flex.WithWorkers(2))
	defer plain.Close()
	psum, err := plain.Submit(context.Background(),
		[]flex.BatchJob{{Layout: l, Engine: flex.EngineMGL}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(psum.Results[0].Shards); got != 0 {
		t.Fatalf("job without a shard knob sharded %d ways by default", got)
	}

	auto := flex.NewService(flex.WithWorkers(2), flex.WithAutoShardBytes(l.ApproxBytes()/3+1))
	defer auto.Close()
	asum, err := auto.Submit(context.Background(), []flex.BatchJob{
		{Layout: l, Engine: flex.EngineMGL},             // over the threshold
		{Layout: l, Engine: flex.EngineMGL, Shards: -1}, // explicitly unsharded
	}, flex.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(asum.Results[0].Shards); got < 2 {
		t.Fatalf("auto-sharding split into %d bands, want >= 2", got)
	}
	if !asum.Results[0].Outcome.Legal {
		t.Fatal("auto-sharded result illegal")
	}
	if got := len(asum.Results[1].Shards); got != 0 {
		t.Fatalf("opted-out job still sharded %d ways", got)
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
