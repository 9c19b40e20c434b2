// Package obs is the serving stack's observability layer: per-job trace
// spans, a metrics registry with Prometheus text exposition, Chrome
// trace-viewer export, and build identity — all stdlib-only.
//
// The package exists so wall-clock telemetry has exactly one home. The
// repo's determinism contract (docs/BENCHMARKING.md) keeps modeled
// seconds and result bytes wall-free; spans and metrics are the
// sanctioned sinks for real clock readings, which is why flexvet's
// walltime analyzer exempts this package wholesale instead of demanding
// per-site justifications. Nothing here may ever feed back into job
// results: recorders and registries are write-mostly sidecars, and every
// entry point is nil-safe so instrumented code runs unchanged — and
// byte-identically — with observability off.
//
// Tracing model: a Recorder owns one job's span tree. It is installed on
// a context with WithRecorder and travels wherever the context goes —
// through the batch pool, into the device model, across the fleet wire
// (the coordinator sends the trace ID in an X-Flex-Trace header; the
// worker opens a linked Recorder and ships its finished spans back inside
// the job result, where AttachRemote grafts them into the caller's tree).
// StartSpan opens a nested span scoped to the returned context; Record
// adds an already-measured interval. Span offsets are microseconds since
// the Recorder's origin, so a tree serializes compactly and rebases
// cheaply.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed phase of a job's trace: a named interval with
// optional detail and nested children. Offsets are microseconds relative
// to the owning Recorder's origin (remote spans are rebased on attach).
type Span struct {
	// Name identifies the phase (admit, sched-wait, device-wait,
	// device-hold, legalize, band k/n, fleet-rpc, stitch, eco-splice).
	Name string `json:"name"`
	// Detail is free-form context: a design name, a worker address.
	Detail string `json:"detail,omitempty"`
	// StartUS and DurUS place the span on the trace's timeline, in
	// microseconds since the Recorder's origin.
	StartUS int64 `json:"startUs"`
	DurUS   int64 `json:"durUs"`
	// Spans are the nested child phases.
	Spans []*Span `json:"spans,omitempty"`
}

// Recorder accumulates one job's span tree. It is safe for concurrent
// use — a sharded job's band spans append from many pool goroutines.
type Recorder struct {
	id     string
	origin time.Time

	admit sync.Once

	mu    sync.Mutex
	spans []*Span
}

// NewRecorder starts a trace with a fresh random ID. The origin (span
// time zero) is the moment of creation.
func NewRecorder() *Recorder {
	return NewLinkedRecorder(newTraceID())
}

// NewLinkedRecorder starts a trace under an existing ID — the worker
// side of a propagated trace, where the coordinator minted the ID and
// sent it across the wire.
func NewLinkedRecorder(id string) *Recorder {
	return &Recorder{id: id, origin: time.Now()}
}

// ID returns the trace ID.
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// us converts an absolute time to the recorder's microsecond offset.
func (r *Recorder) us(t time.Time) int64 { return t.Sub(r.origin).Microseconds() }

// add appends a span under parent (nil = root level) and returns it.
func (r *Recorder) add(parent *Span, name, detail string, start time.Time) *Span {
	sp := &Span{Name: name, Detail: detail, StartUS: r.us(start)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent != nil {
		parent.Spans = append(parent.Spans, sp)
	} else {
		r.spans = append(r.spans, sp)
	}
	return sp
}

// end closes a span opened by add.
func (r *Recorder) end(sp *Span, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.us(at) - sp.StartUS; d > 0 {
		sp.DurUS = d
	}
}

// Record adds a completed root-level span from explicit wall times — for
// phases measured outside any span context, like the collector's stitch.
func (r *Recorder) Record(name, detail string, start, end time.Time) {
	if r == nil {
		return
	}
	sp := r.add(nil, name, detail, start)
	r.end(sp, end)
}

// MarkAdmitted records the admit span — trace origin to t, the moment
// the job entered the scheduler queue — exactly once; every band of a
// sharded job calls it, the first wins.
func (r *Recorder) MarkAdmitted(t time.Time) {
	if r == nil {
		return
	}
	r.admit.Do(func() {
		sp := r.add(nil, "admit", "", r.origin)
		r.end(sp, t)
	})
}

// Spans returns the recorded tree, every level sorted by start offset.
// Call it after the job completes; sorting mutates the tree in place.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sortSpans(r.spans)
	return r.spans
}

// Attach grafts an already-built subtree (a worker's spans) under the
// recorder at root level, rebased so the subtree's earliest span starts
// at baseUS on this recorder's timeline.
func (r *Recorder) attach(parent *Span, spans []*Span, baseUS int64) {
	if r == nil || len(spans) == 0 {
		return
	}
	min := spans[0].StartUS
	for _, sp := range spans {
		if sp.StartUS < min {
			min = sp.StartUS
		}
	}
	shiftSpans(spans, baseUS-min)
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent != nil {
		parent.Spans = append(parent.Spans, spans...)
	} else {
		r.spans = append(r.spans, spans...)
	}
}

func shiftSpans(spans []*Span, delta int64) {
	for _, sp := range spans {
		sp.StartUS += delta
		shiftSpans(sp.Spans, delta)
	}
}

func sortSpans(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	for _, sp := range spans {
		sortSpans(sp.Spans)
	}
}

// spanRef is the context payload: the trace's recorder plus the span all
// new child spans nest under (nil = root level).
type spanRef struct {
	rec    *Recorder
	parent *Span
}

type spanKey struct{}

// WithRecorder installs a trace recorder on the context; spans started
// from the returned context (and its descendants) join its tree.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, &spanRef{rec: rec})
}

// RecorderFrom returns the context's trace recorder, or nil when the job
// is not being traced.
func RecorderFrom(ctx context.Context) *Recorder {
	if ref, _ := ctx.Value(spanKey{}).(*spanRef); ref != nil {
		return ref.rec
	}
	return nil
}

// StartSpan opens a span under the context's current span and returns a
// context scoping further spans beneath it, plus the close function.
// Without a recorder on the context both are free no-ops.
func StartSpan(ctx context.Context, name, detail string) (context.Context, func()) {
	ref, _ := ctx.Value(spanKey{}).(*spanRef)
	if ref == nil {
		return ctx, func() {}
	}
	sp := ref.rec.add(ref.parent, name, detail, time.Now())
	sctx := context.WithValue(ctx, spanKey{}, &spanRef{rec: ref.rec, parent: sp})
	return sctx, func() { ref.rec.end(sp, time.Now()) }
}

// Record adds a completed span from explicit wall times under the
// context's current span — for intervals measured before the fact, like
// a queue wait known only once the job starts. No-op without a recorder.
func Record(ctx context.Context, name, detail string, start, end time.Time) {
	ref, _ := ctx.Value(spanKey{}).(*spanRef)
	if ref == nil {
		return
	}
	sp := ref.rec.add(ref.parent, name, detail, start)
	ref.rec.end(sp, end)
}

// AttachRemote grafts a remote worker's finished spans under the
// context's current span. The worker's clock need not agree with ours:
// the subtree is rebased so its earliest span starts where the enclosing
// span began (for a fleet job, the RPC's start). No-op without a
// recorder or without spans.
func AttachRemote(ctx context.Context, spans []*Span) {
	ref, _ := ctx.Value(spanKey{}).(*spanRef)
	if ref == nil || len(spans) == 0 {
		return
	}
	base := int64(0)
	if ref.parent != nil {
		base = ref.parent.StartUS
	}
	ref.rec.attach(ref.parent, spans, base)
}

// Trace is one finished job's tree as collected by a Tracer.
type Trace struct {
	// ID is the trace ID (the NDJSON "trace" field, the X-Flex-Trace
	// header value, the flexserve debug-log correlation key).
	ID string `json:"id"`
	// Name is the trace's display name.
	Name string `json:"name"`
	// Spans is the tree, sorted by start offset.
	Spans []*Span `json:"spans"`
}

// Tracer collects finished traces for export — the sink behind
// flexlg/flexbench -trace-out. Long-lived servers do not use one (it
// grows without bound); they stream per-job span summaries to the log
// instead.
type Tracer struct {
	mu     sync.Mutex
	traces []*Trace
}

// NewTracer returns an empty trace collector.
func NewTracer() *Tracer { return &Tracer{} }

// Add collects one finished trace: its ID, display name and span tree (a
// recorder's ID and Spans, or a job result's TraceID and Spans). Nil-safe.
func (t *Tracer) Add(id, name string, spans []*Span) {
	if t == nil {
		return
	}
	tr := &Trace{ID: id, Name: name, Spans: spans}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces = append(t.traces, tr)
}

// Traces snapshots the collected traces in collection order.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.traces...)
}

// idCounter backs the fallback trace-ID sequence if crypto/rand fails.
var idCounter atomic.Uint64

// newTraceID returns a 16-hex-digit random trace ID. IDs are telemetry —
// they never enter result bytes — so randomness is safe here.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := idCounter.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Summary renders a one-line span digest — "name dur, name dur, ..."
// over the top-level spans — for per-job debug log lines.
func Summary(spans []*Span) string {
	out := ""
	for i, sp := range spans {
		if i > 0 {
			out += ", "
		}
		out += sp.Name + " " + (time.Duration(sp.DurUS) * time.Microsecond).String()
	}
	return out
}
