package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/gen"
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

func TestRunStartsNothingOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, MGL, nil, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a canceled context: %v", err)
	}
}
