package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
)

func TestTableRoundTrips(t *testing.T) {
	names := Names()
	if len(names) != len(table) || names[0] != "flex" {
		t.Fatalf("Names() = %v", names)
	}
	for i, name := range names {
		k, ok := Parse(name)
		if !ok || k != Kind(i) {
			t.Fatalf("Parse(%q) = %d, %v; want %d", name, k, ok, i)
		}
		if e, err := Lookup(k); err != nil || e.Name != name {
			t.Fatalf("Lookup(%d) = %+v, %v", k, e, err)
		}
	}
	if _, ok := Parse("FLEX"); ok {
		t.Fatal("Parse accepted a label instead of a canonical name")
	}
	for _, k := range []Kind{-1, Kind(len(table))} {
		if _, err := Lookup(k); err == nil {
			t.Fatalf("Lookup(%d) accepted an unknown kind", k)
		}
	}
}

// TestRunHoldsBoardsAndPricesOnRequest runs every engine as a pool job:
// only the FPGA entries take a board, every run reports op counts when
// asked, and only FLEX has a modeled breakdown.
func TestRunHoldsBoardsAndPricesOnRequest(t *testing.T) {
	l, err := gen.Small(60, 0.5, 3).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := batch.NewPool(batch.PoolConfig{Workers: 1, FPGAs: 1})
	defer pool.Close()
	for k := range table {
		kind, e := Kind(k), &table[k]
		jobs := []batch.Job[*Result]{func(ctx context.Context) (*Result, error) {
			return Run(ctx, kind, l, Options{})
		}}
		results, st, err := batch.RunClassedOn(context.Background(), pool, jobs, nil, true, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want := 0
		if e.FPGA {
			want = 1
		}
		if st.DeviceAcquires != want {
			t.Errorf("%s: %d board acquires, want %d", e.Name, st.DeviceAcquires, want)
		}
		r := results[0].Value
		if !r.Legal || r.ModeledSeconds <= 0 || r.Layout == l {
			t.Errorf("%s: legal %v, %v modeled seconds, clone %v", e.Name, r.Legal, r.ModeledSeconds, r.Layout != l)
		}
		if ops := r.Ops(); len(ops) == 0 || ops.Total() <= 0 {
			t.Errorf("%s: no op counts: %v", e.Name, ops)
		}
		if (r.Breakdown() != nil) != (kind == FLEX) {
			t.Errorf("%s: breakdown %+v", e.Name, r.Breakdown())
		}
	}
}

// TestRunReportsToObserver: the context's observer sees the result every
// successful run returns, board-holding or not, and nothing from a run
// that fails.
func TestRunReportsToObserver(t *testing.T) {
	l, err := gen.Small(60, 0.5, 3).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*Result
	ctx := WithObserver(context.Background(), func(r *Result) { seen = append(seen, r) })
	for k := range table {
		r, err := Run(ctx, Kind(k), l, Options{})
		if err != nil {
			t.Fatalf("%s: %v", table[k].Name, err)
		}
		if len(seen) != k+1 || seen[k] != r {
			t.Fatalf("%s: observer saw %d results, the last not the one returned", table[k].Name, len(seen))
		}
	}
	if _, err := Run(ctx, MGL, l, Options{Threads: -1}); err == nil || len(seen) != len(table) {
		t.Fatalf("a failed run (err %v) reached the observer: %d results", err, len(seen))
	}
}

func TestRunStartsNothingOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, MGL, nil, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a canceled context: %v", err)
	}
}

// TestRunRejectsNegativeThreads: a negative thread count fails every
// engine before it runs or takes a board.
func TestRunRejectsNegativeThreads(t *testing.T) {
	l, err := gen.Small(60, 0.5, 3).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range table {
		if r, err := Run(context.Background(), Kind(k), l, Options{Threads: -1}); err == nil {
			t.Fatalf("%s: Threads -1 ran, modeled %g s", table[k].Name, r.ModeledSeconds)
		}
	}
}

// TestMGLMTThreadsAboveMovableCells: no batch holds more targets than the
// layout has movable cells, so a caller's thread count above that places
// and prices exactly as that count does, instead of charging spawn and
// contention for threads that never run.
func TestMGLMTThreadsAboveMovableCells(t *testing.T) {
	l, err := gen.Small(200, 0.6, 7).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(threads int) (*Result, []byte) {
		t.Helper()
		r, err := Run(context.Background(), MGLMT, l, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Encode(&buf, r.Layout); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	movable := len(l.MovableIDs())
	want, wantBytes := run(movable)
	for _, threads := range []int{1 << 40, math.MaxInt} {
		got, gotBytes := run(threads)
		if !bytes.Equal(gotBytes, wantBytes) || got.ModeledSeconds != want.ModeledSeconds {
			t.Errorf("threads=%d: modeled %g s, layout equal %v; threads=%d (the movable cells): modeled %g s",
				threads, got.ModeledSeconds, bytes.Equal(gotBytes, wantBytes), movable, want.ModeledSeconds)
		}
	}
}
