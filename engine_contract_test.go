package flex_test

import (
	"testing"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/experiments"
)

// TestEngineContract pins what the engine table carries for every public
// Engine constant: its canonical name parses back to it, and String gives
// its Table 1 label. An unknown value keeps its numeric spelling.
func TestEngineContract(t *testing.T) {
	for _, c := range []struct {
		engine      flex.Engine
		name, label string
	}{
		{flex.EngineFLEX, "flex", "FLEX"},
		{flex.EngineMGL, "mgl", "MGL"},
		{flex.EngineMGLMT, "mgl-mt", "TCAD'22-MGL"},
		{flex.EngineGPU, "gpu", "DATE'22"},
		{flex.EngineAnalytical, "analytical", "ISPD'25"},
	} {
		if e, err := flex.ParseEngine(c.name); err != nil || e != c.engine {
			t.Errorf("ParseEngine(%q) = %v, %v; want %d", c.name, e, err, int(c.engine))
		}
		if s := c.engine.String(); s != c.label {
			t.Errorf("Engine(%d).String() = %q, want %q", int(c.engine), s, c.label)
		}
	}
	if s := flex.Engine(9).String(); s != "Engine(9)" {
		t.Errorf("Engine(9).String() = %q", s)
	}
	l, err := flex.GenerateCustom(50, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flex.LegalizeWith(l, flex.Engine(9), flex.Options{}); err == nil || err.Error() != "flex: unknown engine 9" {
		t.Errorf("LegalizeWith(Engine(9)) error %v, want \"flex: unknown engine 9\"", err)
	}
}

// TestTable1MatchesLegalizeWith ties Table 1's prices to the public API's:
// every cell of the table equals flex.LegalizeWith of its engine on the
// same design, so the paper's comparison and served results cannot drift
// apart.
func TestTable1MatchesLegalizeWith(t *testing.T) {
	opt := experiments.Options{Scale: 0.008, Designs: []string{"fft_a_md2", "pci_b_a_md2"}, Threads: 8}
	rows, err := experiments.Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(opt.Designs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(opt.Designs))
	}
	for _, row := range rows {
		l, err := flex.Generate(row.Name, opt.Scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			engine flex.Engine
			cell   experiments.EngineCell
		}{
			{flex.EngineMGLMT, row.MGL},
			{flex.EngineGPU, row.Date},
			{flex.EngineAnalytical, row.Ispd},
			{flex.EngineFLEX, row.Flex},
		} {
			out, err := flex.LegalizeWith(l, c.engine, flex.Options{Threads: opt.Threads})
			if err != nil {
				t.Fatal(err)
			}
			if out.Metrics.AveDis != c.cell.AveDis || out.Metrics.MaxDis != c.cell.MaxDis ||
				out.Legal != c.cell.Legal || out.ModeledSeconds != c.cell.Seconds {
				t.Errorf("%s %s: LegalizeWith AveDis %v MaxDis %v Legal %v %vs; Table 1 %v %v %v %vs",
					row.Name, c.engine, out.Metrics.AveDis, out.Metrics.MaxDis, out.Legal, out.ModeledSeconds,
					c.cell.AveDis, c.cell.MaxDis, c.cell.Legal, c.cell.Seconds)
			}
		}
	}
}
