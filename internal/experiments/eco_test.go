package experiments

import "testing"

// TestEcoSingleBandRerunsEveryEdit: a one-band plan leaves the incremental
// service no clean band to splice, so each edit re-runs its one band in
// full and the stream measures no speedup — without failing the driver.
func TestEcoSingleBandRerunsEveryEdit(t *testing.T) {
	pts, err := Eco(Options{Scale: 0.008, Designs: []string{"fft_a_md2"}}, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Bands != 1 || p.Edits != 2 || p.Dirty != p.Edits || p.IncModeled != p.FullModeled {
		t.Fatalf("one-band stream: %+v, want every edit dirtying the band at full cost", p)
	}
}
