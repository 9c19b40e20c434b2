package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	rec := NewRecorder()
	if rec.ID() == "" || len(rec.ID()) != 16 {
		t.Fatalf("want 16-hex trace ID, got %q", rec.ID())
	}
	ctx := WithRecorder(context.Background(), rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("RecorderFrom lost the recorder")
	}

	octx, outer := StartSpan(ctx, "legalize", "fft")
	_, inner := StartSpan(octx, "device-wait", "")
	inner()
	outer()
	// A sibling at root level, from explicit times.
	Record(ctx, "stitch", "", time.Now(), time.Now().Add(time.Millisecond))

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 root spans, got %d: %v", len(spans), Summary(spans))
	}
	var legalize *Span
	for _, sp := range spans {
		if sp.Name == "legalize" {
			legalize = sp
		}
	}
	if legalize == nil || len(legalize.Spans) != 1 || legalize.Spans[0].Name != "device-wait" {
		t.Fatalf("device-wait not nested under legalize: %+v", spans)
	}
}

func TestNoRecorderIsFreeNoop(t *testing.T) {
	ctx := context.Background()
	sctx, end := StartSpan(ctx, "x", "")
	if sctx != ctx {
		t.Fatal("StartSpan without recorder must return ctx unchanged")
	}
	end()
	Record(ctx, "x", "", time.Now(), time.Now())
	AttachRemote(ctx, []*Span{{Name: "r"}})
	if RecorderFrom(ctx) != nil {
		t.Fatal("RecorderFrom on a bare context")
	}
	var nilRec *Recorder
	nilRec.Record("x", "", time.Now(), time.Now())
	nilRec.MarkAdmitted(time.Now())
	if nilRec.ID() != "" || nilRec.Spans() != nil {
		t.Fatal("nil Recorder must be inert")
	}
}

func TestConcurrentBandSpans(t *testing.T) {
	rec := NewRecorder()
	ctx := WithRecorder(context.Background(), rec)
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.MarkAdmitted(time.Now())
			sctx, end := StartSpan(ctx, "band", "")
			_, inner := StartSpan(sctx, "device-hold", "")
			inner()
			end()
		}()
	}
	wg.Wait()
	spans := rec.Spans()
	admits, bands := 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "admit":
			admits++
		case "band":
			bands++
		}
	}
	if admits != 1 {
		t.Fatalf("MarkAdmitted must record exactly once, got %d", admits)
	}
	if bands != 8 {
		t.Fatalf("want 8 band spans, got %d", bands)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartUS < spans[i-1].StartUS {
			t.Fatal("Spans() must sort by start offset")
		}
	}
}

func TestAttachRemoteRebases(t *testing.T) {
	rec := NewLinkedRecorder("deadbeefdeadbeef")
	ctx := WithRecorder(context.Background(), rec)
	sctx, end := StartSpan(ctx, "band", "")
	// Worker spans on a wildly different clock origin.
	remote := []*Span{
		{Name: "legalize", StartUS: 9_000_100, DurUS: 50,
			Spans: []*Span{{Name: "device-hold", StartUS: 9_000_120, DurUS: 10}}},
		{Name: "sched-wait", StartUS: 9_000_000, DurUS: 100},
	}
	AttachRemote(sctx, remote)
	end()

	spans := rec.Spans()
	if len(spans) != 1 || len(spans[0].Spans) != 2 {
		t.Fatalf("remote spans not attached under band: %+v", spans)
	}
	band := spans[0]
	for _, sp := range band.Spans {
		if sp.StartUS < band.StartUS {
			t.Fatalf("remote span %s starts before enclosing span: %d < %d",
				sp.Name, sp.StartUS, band.StartUS)
		}
	}
	// The child kept its offset relative to its remote parent.
	var legalize *Span
	for _, sp := range band.Spans {
		if sp.Name == "legalize" {
			legalize = sp
		}
	}
	if got := legalize.Spans[0].StartUS - legalize.StartUS; got != 20 {
		t.Fatalf("nested remote offset shifted: want 20, got %d", got)
	}
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	rec := NewRecorder()
	ctx := WithRecorder(context.Background(), rec)
	_, end := StartSpan(ctx, "legalize", "fft_a_md2")
	end()
	tr.Add(rec.ID(), "fft_a_md2", rec.Spans())

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("want thread_name + 1 span event, got %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" || doc.TraceEvents[1]["ph"] != "X" {
		t.Fatalf("unexpected phases: %v", doc.TraceEvents)
	}
	name := doc.TraceEvents[0]["args"].(map[string]any)["name"].(string)
	if want := "fft_a_md2 [" + rec.ID() + "]"; name != want {
		t.Fatalf("lane name %q, want %q", name, want)
	}
}

func TestBuildInfoPopulated(t *testing.T) {
	b := Build()
	if b.Module == "" || b.Version == "" {
		t.Fatalf("build identity empty: %+v", b)
	}
}
