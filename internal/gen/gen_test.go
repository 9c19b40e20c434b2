package gen

import (
	"fmt"
	"strings"
	"testing"

	"github.com/flex-eda/flex/internal/model"
)

// heightHistogram returns, for each height class 1..MaxHeight, the number
// of movable cells of that height.
func heightHistogram(l *model.Layout) []int {
	hist := make([]int, l.MaxHeight()+1)
	for i := range l.Cells {
		if !l.Cells[i].Fixed {
			hist[l.Cells[i].H]++
		}
	}
	return hist
}

// tallCellFraction returns the fraction of movable cells strictly taller
// than minRows rows (the gray series of the paper's Fig. 9 uses minRows=3).
func tallCellFraction(l *model.Layout, minRows int) float64 {
	tall, total := 0, 0
	for i := range l.Cells {
		if l.Cells[i].Fixed {
			continue
		}
		total++
		if l.Cells[i].H > minRows {
			tall++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(tall) / float64(total)
}

func TestGenerateLegalIsLegal(t *testing.T) {
	for _, spec := range []Spec{
		Small(400, 0.55, 7),
		Small(400, 0.85, 8),
		Small(150, 0.25, 9),
	} {
		l, err := spec.GenerateLegal(1.0)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if vs := l.Check(5); len(vs) != 0 {
			t.Fatalf("%s: legal packing has violations: %v", spec.Name, vs)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec := Small(300, 0.6, 42)
	a, err := spec.Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

func TestGenerateDensityNearTarget(t *testing.T) {
	spec := Small(2000, 0.6, 3)
	l, err := spec.GenerateLegal(1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := l.Density()
	if d < 0.40 || d > 0.75 {
		t.Fatalf("density %v too far from target 0.6", d)
	}
}

func TestGenerateHeightMix(t *testing.T) {
	spec := Small(4000, 0.5, 11)
	l, err := spec.Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	hist := heightHistogram(l)
	total := 0
	for _, c := range hist {
		total += c
	}
	for h := 1; h <= 4; h++ {
		got := float64(hist[h]) / float64(total)
		want := spec.HeightMix[h-1]
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("height %d fraction = %.3f, want ~%.3f", h, got, want)
		}
	}
}

func TestGeneratePerturbationCreatesOverlap(t *testing.T) {
	spec := Small(800, 0.7, 5)
	l, err := spec.Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if l.OverlapArea() == 0 {
		t.Fatal("global placement should contain overlaps at density 0.7")
	}
	// Every cell must still be inside the die and X==GX (pre-legalization).
	die := l.Die()
	for i := range l.Cells {
		c := &l.Cells[i]
		if !die.Contains(c.Rect()) {
			t.Fatalf("cell %d out of die after perturbation", i)
		}
		if c.X != c.GX || c.Y != c.GY {
			t.Fatalf("cell %d current position differs from GP before legalization", i)
		}
	}
}

func TestNoTallCellsInMd1Designs(t *testing.T) {
	for _, name := range []string{"des_perf_1", "des_perf_a_md1", "des_perf_b_md1"} {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing from suite", name)
		}
		if spec.TallFraction() != 0 {
			t.Errorf("%s should have no cells taller than 3 rows", name)
		}
		l, err := spec.Generate(0.01)
		if err != nil {
			t.Fatal(err)
		}
		if f := tallCellFraction(l, 3); f != 0 {
			t.Errorf("%s: generated tall fraction %v, want 0", name, f)
		}
	}
	spec, _ := ByName("pci_b_a_md2")
	if spec.TallFraction() < 0.05 {
		t.Errorf("pci_b_a_md2 should have the largest tall-cell share, got %v", spec.TallFraction())
	}
}

func TestSuiteCompleteness(t *testing.T) {
	suite := ICCAD2017()
	if len(suite) != 16 {
		t.Fatalf("ICCAD2017 suite has %d designs, want 16", len(suite))
	}
	seen := map[string]bool{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Fatalf("duplicate design %s", s.Name)
		}
		seen[s.Name] = true
		if s.NumCells < 20000 {
			t.Errorf("%s: cell count %d suspiciously small", s.Name, s.NumCells)
		}
		if s.TargetDensity <= 0 || s.TargetDensity >= 1 {
			t.Errorf("%s: bad density %v", s.Name, s.TargetDensity)
		}
	}
	sb := Superblue()
	if len(sb) != 2 {
		t.Fatalf("Superblue suite has %d designs, want 2", len(sb))
	}
	if _, ok := ByName("superblue19"); !ok {
		t.Fatal("superblue19 not found by name")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName found a nonexistent design")
	}
}

func TestGenerateScale(t *testing.T) {
	spec := Small(10000, 0.5, 13)
	l, err := spec.Generate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	movable := len(l.MovableIDs())
	if movable < 400 || movable > 600 {
		t.Fatalf("scaled cell count %d, want ~500", movable)
	}
	if _, err := spec.Generate(0); err == nil {
		t.Fatal("scale 0 must be rejected")
	}
}

func TestGenerateRejectsBadDensity(t *testing.T) {
	spec := Small(100, 0.5, 1)
	spec.TargetDensity = 0.99
	if _, err := spec.Generate(1); err == nil {
		t.Fatal("density 0.99 must be rejected")
	}
	spec.TargetDensity = 0
	if _, err := spec.Generate(1); err == nil {
		t.Fatal("density 0 must be rejected")
	}
}

// TestSuiteDesignsPassDieRule checks flexpl's die and cell rules against
// every suite design at scale 1.0. Decode applies the die rule as soon as
// it has read the cell count and the cell rule on each cell line, so input
// that gets as far as the missing cell lines has passed both; decoding the
// header and the widest and tallest cells keeps the large designs cheap.
func TestSuiteDesignsPassDieRule(t *testing.T) {
	for _, s := range append(ICCAD2017(), Superblue()...) {
		l, err := s.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		wide, tall := &l.Cells[0], &l.Cells[0]
		for i := range l.Cells {
			c := &l.Cells[i]
			if c.W > wide.W {
				wide = c
			}
			if c.H > tall.H {
				tall = c
			}
		}
		input := fmt.Sprintf("flexpl 1\ndesign %s\ndie %d %d %d\ncells %d\n",
			l.Name, l.NumSitesX, l.NumRows, l.RowHeight, len(l.Cells))
		for _, c := range []*model.Cell{wide, tall} {
			input += fmt.Sprintf("c%d %d %d %d %d %s 0\n", c.ID, c.GX, c.GY, c.W, c.H, c.Parity)
		}
		_, err = model.Decode(strings.NewReader(input))
		if want := fmt.Sprintf("expected %d cells, got 2", len(l.Cells)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: die %d x %d with %d cells: Decode error %v, want %q",
				s.Name, l.NumSitesX, l.NumRows, len(l.Cells), err, want)
		}
	}
}
