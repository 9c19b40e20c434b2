package flex_test

import (
	"bytes"
	"testing"

	flex "github.com/flex-eda/flex"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	l, err := flex.Generate("fft_a_md2", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []flex.Engine{
		flex.EngineFLEX, flex.EngineMGL, flex.EngineMGLMT,
		flex.EngineGPU, flex.EngineAnalytical,
	} {
		out, err := flex.Legalize(l, engine)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if !out.Legal {
			t.Fatalf("%v: illegal result: %v", engine, out.Violations)
		}
		if out.ModeledSeconds <= 0 {
			t.Fatalf("%v: no modeled time", engine)
		}
		if out.Metrics.AveDis <= 0 {
			t.Fatalf("%v: no displacement measured", engine)
		}
	}
}

func TestPublicAPIUnknowns(t *testing.T) {
	if _, err := flex.Generate("nope", 1); err == nil {
		t.Fatal("unknown design accepted")
	}
	l, _ := flex.GenerateCustom(100, 0.5, 1)
	if _, err := flex.Legalize(l, flex.Engine(99)); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := flex.Legalize(nil, flex.EngineFLEX); err == nil {
		t.Fatal("nil layout accepted")
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	l, err := flex.GenerateCustom(150, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flex.WriteLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := flex.ReadLayout(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(l.Cells) {
		t.Fatalf("round trip lost cells: %d vs %d", len(got.Cells), len(l.Cells))
	}
	m := flex.Measure(got)
	if m.Movable == 0 {
		t.Fatal("no movable cells after round trip")
	}
}

func TestDesignsList(t *testing.T) {
	names := flex.Designs()
	if len(names) != 18 {
		t.Fatalf("Designs() = %d names, want 18 (16 + 2 superblue)", len(names))
	}
}

func TestEngineOptions(t *testing.T) {
	l, err := flex.GenerateCustom(200, 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	two, err := flex.Legalize(l, flex.EngineFLEX)
	if err != nil {
		t.Fatal(err)
	}
	one, err := flex.LegalizeWith(l, flex.EngineFLEX, flex.Options{OnePE: true})
	if err != nil {
		t.Fatal(err)
	}
	if one.ModeledSeconds < two.ModeledSeconds {
		t.Fatalf("1 PE (%v s) faster than 2 PEs (%v s)", one.ModeledSeconds, two.ModeledSeconds)
	}
	offload, err := flex.LegalizeWith(l, flex.EngineFLEX, flex.Options{OffloadInsert: true})
	if err != nil {
		t.Fatal(err)
	}
	if offload.ModeledSeconds <= two.ModeledSeconds {
		t.Fatal("offloading insert&update should cost time (Fig. 10)")
	}
	if s := two.Engine.String(); s != "FLEX" {
		t.Fatalf("engine name %q", s)
	}
}
