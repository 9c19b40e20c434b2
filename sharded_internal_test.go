package flex

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/fleet"
)

// TestFoldIgnoresSkippedPaddingSlots: when a requested shard count exceeds
// what the die holds, the padding slots beyond the clamped plan may be
// canceled (ErrSkipped) while every real band already finished — the fold
// must still deliver the stitched result instead of reporting the whole
// job skipped, and OnShard must never surface a padding slot.
func TestFoldIgnoresSkippedPaddingSlots(t *testing.T) {
	svc := NewService(WithWorkers(1))
	defer svc.Close()
	l, err := GenerateCustom(80, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	const requested = 40
	e := svc.expand([]BatchJob{{Layout: l, Engine: EngineMGL, Shards: requested}})
	if len(e.pool) != requested {
		t.Fatalf("expanded into %d pool jobs, want %d", len(e.pool), requested)
	}
	p, err := e.states[0].prep()
	if err != nil {
		t.Fatal(err)
	}
	eff := len(p.plan.Bands)
	if eff >= requested || eff < 1 {
		t.Fatalf("effective bands = %d, want clamped below %d", eff, requested)
	}

	var folded []BatchResult
	shardCalls := 0
	col := newShardCollector(e, SubmitOptions{
		OnShard: func(job int, r BatchResult) { shardCalls++ },
	}, func(br BatchResult) { folded = append(folded, br) })
	// Real bands completed before the batch was canceled; the padding
	// slots were skipped by the cancellation.
	for i := 0; i < requested; i++ {
		r := batch.Result[*Outcome]{Index: i}
		if i < eff {
			out, err := svc.exec(context.Background(), e.jobs[0], p.bands[i], "")
			if err != nil {
				t.Fatalf("band %d: %v", i, err)
			}
			r.Value = out
		} else {
			r.Err = batch.ErrSkipped
		}
		col.observe(r)
	}

	if len(folded) != 1 {
		t.Fatalf("folded %d results, want 1", len(folded))
	}
	br := folded[0]
	if br.Err != nil {
		t.Fatalf("finished bands reported as failed/skipped: %v", br.Err)
	}
	if br.Outcome == nil || !br.Outcome.Legal {
		t.Fatalf("no stitched outcome: %+v", br)
	}
	if len(br.Shards) != eff {
		t.Fatalf("result carries %d shard entries, want %d real bands", len(br.Shards), eff)
	}
	if shardCalls != eff {
		t.Fatalf("OnShard fired %d times, want %d (padding slots must not surface)", shardCalls, eff)
	}
}

// TestAutoShardCap: size-triggered sharding never derives more than
// maxAutoShards bands, however extreme the footprint/threshold ratio.
func TestAutoShardCap(t *testing.T) {
	svc := NewService(WithWorkers(1), WithAutoShardBytes(1))
	defer svc.Close()
	if k := svc.effectiveShards(BatchJob{Design: "superblue19", Scale: 1.0}); k != maxAutoShards {
		t.Fatalf("auto shard count = %d, want capped at %d", k, maxAutoShards)
	}
	// An explicit request is the caller's own expansion and stays uncapped.
	if k := svc.effectiveShards(BatchJob{Design: "superblue19", Scale: 1.0, Shards: 100}); k != 100 {
		t.Fatalf("explicit shard count = %d, want 100", k)
	}
}

// TestWireDeadlineOverflowRejected: a fleet job whose deadlineMs would
// overflow time.Duration (and wrap into the past) is an invalid job, not
// an expired one; the largest deadline that fits is re-anchored in the
// future.
func TestWireDeadlineOverflowRejected(t *testing.T) {
	x := &serviceExecutor{}
	for _, ms := range []int64{maxDeadlineMs + 1, math.MaxInt64} {
		if _, err := x.parse(fleet.Job{Engine: "mgl", Design: "fft_a_md2", Scale: 0.01, DeadlineMs: ms}); !errors.Is(err, fleet.ErrInvalidJob) {
			t.Fatalf("deadlineMs %d: err %v, want fleet.ErrInvalidJob", ms, err)
		}
	}
	job, err := x.parse(fleet.Job{Engine: "mgl", Design: "fft_a_md2", Scale: 0.01, DeadlineMs: maxDeadlineMs})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Deadline.After(time.Now()) {
		t.Fatalf("deadlineMs %d re-anchored at %v, in the past", maxDeadlineMs, job.Deadline)
	}
}
