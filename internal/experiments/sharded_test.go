package experiments

import (
	"strings"
	"testing"
)

// shardedTiny drives two contrasting designs through the sharded runner at
// test scale.
var shardedTiny = Options{
	Scale:   0.008,
	Designs: []string{"fft_a_md2", "pci_b_a_md2"},
}

func TestShardedRunsStitchLegal(t *testing.T) {
	pts, err := Sharded(shardedTiny, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if !p.Legal {
			t.Errorf("%s: sharded run not legal", p.Name)
		}
		if p.Bands < 1 || p.Bands > 3 {
			t.Errorf("%s: %d bands, want 1..3", p.Name, p.Bands)
		}
		if len(p.BandCells) != p.Bands || len(p.BandWall) != p.Bands || len(p.BandWait) != p.Bands {
			t.Errorf("%s: per-band slices don't match band count", p.Name)
		}
		total := 0
		for _, n := range p.BandCells {
			total += n
		}
		if total != p.Cells {
			t.Errorf("%s: band cells sum to %d, want %d", p.Name, total, p.Cells)
		}
		if p.ModeledMax <= 0 || p.ModeledSum < p.ModeledMax {
			t.Errorf("%s: modeled times inconsistent: max %v sum %v", p.Name, p.ModeledMax, p.ModeledSum)
		}
		if p.AveDis <= 0 {
			t.Errorf("%s: AveDis %v", p.Name, p.AveDis)
		}
	}
}

// TestShardedDeterministicAcrossWorkers: the rendered table is the
// determinism currency of the CI cmp gate — any workers × fpgas schedule
// must produce identical bytes for a fixed shard count.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers, fpgas int) string {
		pts, err := Sharded(withPool(t, shardedTiny, workers, fpgas), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		RenderSharded(pts).Render(&sb)
		return sb.String()
	}
	want := render(1, 1)
	for _, cfg := range [][2]int{{4, 1}, {4, 2}, {2, -1}} {
		if got := render(cfg[0], cfg[1]); got != want {
			t.Fatalf("workers=%d fpgas=%d: sharded table differs\nwant:\n%s\ngot:\n%s",
				cfg[0], cfg[1], want, got)
		}
	}
}

// TestShardedResolvesSuperblueByName: the paper-scale designs are reachable
// through the explicit design filter (never by default).
func TestShardedResolvesSuperblueByName(t *testing.T) {
	o := Options{Scale: 0.001, Designs: []string{"superblue19"}}
	pts, err := Sharded(o, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Name != "superblue19" {
		t.Fatalf("got %+v, want one superblue19 point", pts)
	}
	if !pts[0].Legal {
		t.Errorf("superblue19 sharded run not legal")
	}
	if def := (Options{Scale: 0.001}).suite(); len(def) != 16 {
		t.Fatalf("default suite has %d designs, want 16 (superblue must stay opt-in)", len(def))
	}
}

func TestShardedRejectsBadShardCount(t *testing.T) {
	if _, err := Sharded(shardedTiny, 0, 2); err == nil {
		t.Fatal("Sharded accepted 0 shards")
	}
}
