package flex_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// FLEX paper's evaluation section. Each benchmark regenerates its artifact
// via internal/experiments and reports the paper's headline quantities as
// custom metrics, so `go test -bench=. -benchmem` reproduces every result
// shape in one run.
//
// Scales are kept small so the whole suite completes in minutes; pass
// larger scales through cmd/flexbench for paper-sized runs.

import (
	"testing"

	"github.com/flex-eda/flex/internal/experiments"
)

// benchOpt is the shared scale/filter for the heavier drivers.
var benchOpt = experiments.Options{
	Scale:   0.008,
	Designs: []string{"des_perf_b_md1", "fft_a_md2", "pci_b_a_md2"},
}

func BenchmarkTable1Comparison(b *testing.B) {
	var accT, accD, accI float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		accT, accD, accI = 0, 0, 0
		for _, r := range rows {
			accT += r.AccT
			accD += r.AccD
			accI += r.AccI
		}
		n := float64(len(rows))
		accT, accD, accI = accT/n, accD/n, accI/n
	}
	b.ReportMetric(accT, "Acc(T)x")
	b.ReportMetric(accD, "Acc(D)x")
	b.ReportMetric(accI, "Acc(I)x")
}

func BenchmarkTable2Resources(b *testing.B) {
	var luts int
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		luts = len(t.Rows)
	}
	b.ReportMetric(float64(luts), "rows")
}

func BenchmarkFig2aThreadScaling(b *testing.B) {
	opt := experiments.Options{Scale: 0.008, Designs: []string{"des_perf_b_md1"}}
	var s8 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2a(opt)
		if err != nil {
			b.Fatal(err)
		}
		s8 = pts[3].Speedup
	}
	b.ReportMetric(s8, "8T-speedupx")
}

func BenchmarkFig2bSyncShare(b *testing.B) {
	opt := experiments.Options{Scale: 0.008}
	var share float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2b(opt)
		if err != nil {
			b.Fatal(err)
		}
		share = pts[0].SyncShare
	}
	b.ReportMetric(share*100, "sync%")
}

func BenchmarkFig2cParallelism(b *testing.B) {
	opt := experiments.Options{Scale: 0.008}
	var maxBatch float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2c(opt)
		if err != nil {
			b.Fatal(err)
		}
		maxBatch = float64(pts[0].MaxBatch)
	}
	b.ReportMetric(maxBatch, "max-regions")
}

func BenchmarkFig2gShiftShare(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2g(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		share = 0
		for _, p := range pts {
			share += p.ShiftShare
		}
		share /= float64(len(pts))
	}
	b.ReportMetric(share*100, "shift%")
}

func BenchmarkFig6gSortOverhead(b *testing.B) {
	opt := experiments.Options{Scale: 0.006, Designs: []string{"fft_a_md2"}}
	var share, passes float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6g(opt)
		if err != nil {
			b.Fatal(err)
		}
		share = pts[0].SortShare
		passes = pts[0].OrigPassesAvg
	}
	b.ReportMetric(share*100, "sort%")
	b.ReportMetric(passes, "orig-passes/pt")
}

func BenchmarkFig8PipelineLadder(b *testing.B) {
	var sacs, mg, two float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		sacs, mg, two = 0, 0, 0
		for _, p := range pts {
			sacs += p.SACS
			mg += p.MG
			two += p.TwoPE
		}
		n := float64(len(pts))
		sacs, mg, two = sacs/n, mg/n, two/n
	}
	b.ReportMetric(sacs, "+SACSx")
	b.ReportMetric(mg, "+MGx")
	b.ReportMetric(two, "+2PEx")
}

func BenchmarkFig9SACSLadder(b *testing.B) {
	opt := experiments.Options{Scale: 0.008, Designs: []string{"des_perf_a_md1", "pci_b_a_md2"}}
	var paral, bwGain float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		paral, bwGain = 0, 0
		for _, p := range pts {
			paral += p.Paral
			bwGain += p.ImpBW / p.Arch
		}
		n := float64(len(pts))
		paral, bwGain = paral/n, bwGain/n
	}
	b.ReportMetric(paral, "SACS-Paralx")
	b.ReportMetric(bwGain, "ImpBW/Arx")
}

func BenchmarkFig10TaskAssignment(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig10(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		ratio = 0
		for _, p := range pts {
			ratio += p.Ratio
		}
		ratio /= float64(len(pts))
	}
	b.ReportMetric(ratio, "d+e/d-ratiox")
}

// BenchmarkEngines measures raw wall-clock of each engine's Go
// implementation on a fixed small design (not a paper artifact; useful for
// tracking the software's own performance).
func BenchmarkEngines(b *testing.B) {
	for _, bench := range []struct {
		name string
		run  func(b *testing.B)
	}{
		{"FLEX", benchEngine(0)},
		{"MGL-seq", benchEngine(1)},
		{"MGL-8T", benchEngine(2)},
		{"GPU", benchEngine(3)},
		{"Analytical", benchEngine(4)},
	} {
		b.Run(bench.name, bench.run)
	}
}

func benchEngine(kind int) func(b *testing.B) {
	return func(b *testing.B) {
		l, err := genLayout()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			switch kind {
			case 0:
				mustLegal(b, legalizeFLEX(l))
			case 1:
				mustLegal(b, legalizeMGL(l, 1))
			case 2:
				mustLegal(b, legalizeMGL(l, 8))
			case 3:
				mustLegal(b, legalizeGPU(l))
			case 4:
				mustLegal(b, legalizeAnalytical(l))
			}
		}
	}
}
