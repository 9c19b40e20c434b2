package abacus

import (
	"math/rand"
	"sort"
	"testing"
)

func TestPlaceNoOverlapNeeded(t *testing.T) {
	items := []Item{{ID: 0, GX: 2, W: 3}, {ID: 1, GX: 10, W: 4}}
	pos, ok := new(Solver).Place(items, 0, 30)
	if !ok {
		t.Fatal("feasible input rejected")
	}
	if pos[0] != 2 || pos[1] != 10 {
		t.Fatalf("positions %v, want [2 10]", pos)
	}
}

func TestPlaceResolvesOverlapSymmetrically(t *testing.T) {
	// Two equal-weight cells wanting the same spot split the difference.
	items := []Item{{ID: 0, GX: 10, W: 4}, {ID: 1, GX: 10, W: 4}}
	pos, ok := new(Solver).Place(items, 0, 40)
	if !ok {
		t.Fatal("rejected")
	}
	if pos[1]-pos[0] != 4 {
		t.Fatalf("cells overlap or gap: %v", pos)
	}
	mid := float64(pos[0]+pos[1]+4) / 2
	if mid < 11 || mid > 13 {
		t.Fatalf("cluster not centred near 12: %v", pos)
	}
}

func TestPlaceRespectsBounds(t *testing.T) {
	items := []Item{{ID: 0, GX: -5, W: 4}, {ID: 1, GX: 100, W: 4}}
	pos, ok := new(Solver).Place(items, 0, 20)
	if !ok {
		t.Fatal("rejected")
	}
	if pos[0] < 0 || pos[1]+4 > 20 {
		t.Fatalf("bounds violated: %v", pos)
	}
	if pos[0]+4 > pos[1] {
		t.Fatalf("overlap: %v", pos)
	}
}

func TestPlaceInfeasible(t *testing.T) {
	items := []Item{{ID: 0, GX: 0, W: 10}, {ID: 1, GX: 0, W: 10}}
	if _, ok := new(Solver).Place(items, 0, 15); ok {
		t.Fatal("accepted overfull segment")
	}
}

func TestPlaceEmpty(t *testing.T) {
	pos, ok := new(Solver).Place(nil, 0, 10)
	if !ok || pos != nil {
		t.Fatal("empty input mishandled")
	}
}

// TestPlaceNearOptimal compares against brute force on tiny instances.
func TestPlaceNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s Solver // one for every instance, as the analytical engine keeps one
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: i, GX: rng.Intn(14), W: 1 + rng.Intn(3), Weight: 1}
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].GX < items[b].GX })
		lo, hi := 0, 20
		pos, ok := s.Place(items, lo, hi)
		if !ok {
			continue
		}
		// Verify legality.
		for i := 1; i < n; i++ {
			if pos[i-1]+items[i-1].W > pos[i] {
				t.Fatalf("iter %d: overlap in %v", iter, pos)
			}
		}
		got := Cost(items, pos)
		// Brute force the optimal order-preserving packing.
		best := bruteOpt(items, lo, hi)
		// Integer rounding can cost a little; allow a small slack.
		if got > best+float64(n) {
			t.Fatalf("iter %d: cost %v far from optimal %v (pos %v)", iter, got, best, pos)
		}
	}
}

func bruteOpt(items []Item, lo, hi int) float64 {
	n := len(items)
	best := 1e18
	var rec func(i, minX int, acc float64, pos []int)
	rec = func(i, minX int, acc float64, pos []int) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for x := minX; x+items[i].W <= hi; x++ {
			d := float64(x - items[i].GX)
			rec(i+1, x+items[i].W, acc+d*d, append(pos, x))
		}
	}
	rec(0, lo, 0, nil)
	return best
}

func TestWeightsBiasCluster(t *testing.T) {
	// A heavy cell should barely move; the light one absorbs the shift.
	heavy := []Item{{ID: 0, GX: 10, W: 4, Weight: 100}, {ID: 1, GX: 10, W: 4, Weight: 1}}
	pos, ok := new(Solver).Place(heavy, 0, 40)
	if !ok {
		t.Fatal("rejected")
	}
	if d0, d1 := abs(pos[0]-10), abs(pos[1]-10); d0 > d1 {
		t.Fatalf("heavy cell moved more than light one: %v", pos)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
