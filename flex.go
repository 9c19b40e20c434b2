// Package flex is the public API of the FLEX reproduction: an FPGA-CPU
// co-designed legalizer for mixed-cell-height VLSI designs (Liu et al.,
// "FLEX: Leveraging FPGA-CPU Synergy for Mixed-Cell-Height Legalization
// Acceleration", ICPP 2025), together with the three baselines the paper
// compares against and the synthetic IC/CAD 2017 benchmark suite it is
// evaluated on.
//
// Quick start:
//
//	layout, _ := flex.Generate("fft_a_md2", 0.05)
//	out, _ := flex.Legalize(layout, flex.EngineFLEX)
//	fmt.Println(out.Legal, out.Metrics.AveDis, out.ModeledSeconds)
//
// Engines share the same algorithmic substrate (the MGL legalization flow);
// they differ in scheduling policy and in the platform model that prices
// their work. ModeledSeconds is deterministic — it is computed from
// operation traces, not wall clocks — so comparisons are reproducible.
package flex

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// Core data-model vocabulary, re-exported for API users.
type (
	// Layout is a complete design: die, rows, and all cells.
	Layout = model.Layout
	// Cell is one standard cell (movable or fixed blockage).
	Cell = model.Cell
	// Metrics is the quality summary (AveDis is Eq. 2 of the paper).
	Metrics = model.Metrics
	// Violation is one legality failure.
	Violation = model.Violation
	// PGParity is the power/ground rail alignment constraint.
	PGParity = model.PGParity
)

// Re-exported parity constants.
const (
	ParityAny  = model.ParityAny
	ParityEven = model.ParityEven
	ParityOdd  = model.ParityOdd
)

// Engine selects a legalizer implementation.
type Engine int

const (
	// EngineFLEX is the paper's FPGA-CPU accelerator (sliding-window
	// ordering, streaming FOP on the FPGA model, step e on the CPU).
	EngineFLEX Engine = iota
	// EngineMGL is the sequential software MGL reference.
	EngineMGL
	// EngineMGLMT is the TCAD'22-style multi-threaded CPU baseline.
	EngineMGLMT
	// EngineGPU is the DATE'22-style CPU-GPU baseline.
	EngineGPU
	// EngineAnalytical is the ISPD'25-style analytical baseline.
	EngineAnalytical
)

// String names the engine as in the paper's Table 1.
func (e Engine) String() string {
	if en, err := engine.Lookup(engine.Kind(e)); err == nil {
		return en.Label
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// EngineNames lists the canonical names ParseEngine accepts, FLEX first.
// They come from internal/engine's table, as does every CLI and server
// error message naming them, so the accepted set cannot drift between
// surfaces.
func EngineNames() []string { return engine.Names() }

// ParseEngine maps a canonical engine name (see EngineNames) to its Engine.
func ParseEngine(name string) (Engine, error) {
	if k, ok := engine.Parse(name); ok {
		return Engine(k), nil
	}
	return 0, fmt.Errorf("flex: unknown engine %q (want %s)", name, strings.Join(EngineNames(), ", "))
}

// Options tunes an engine run. The zero value picks the paper's defaults.
// It converts to the engine table's options by struct conversion, so the
// two keep the same fields in the same order.
type Options struct {
	// Threads is the CPU baseline's worker count (EngineMGLMT; default 8).
	// A negative count fails the run, whatever the engine.
	Threads int
	// SlidingWindow is FLEX's ordering window (default 8; negative
	// disables the density reordering).
	SlidingWindow int
	// OnePE restricts FLEX to a single FOP PE instead of the default
	// 2-parallel PE cluster (the last rung of the Fig. 8 ladder undone).
	OnePE bool
	// OffloadInsert moves step e) to the FPGA (the Fig. 10 ablation).
	OffloadInsert bool
}

// Outcome is a finished legalization with its quality and modeled runtime.
type Outcome struct {
	Layout         *Layout
	Metrics        Metrics
	Legal          bool
	Violations     []Violation
	ModeledSeconds float64
	Engine         Engine
	// InputHash is the content hash of the job's input layout — the handle
	// a later BatchJob.BaseHash or flexserve "base" field may reference to
	// request an incremental re-legalization. Set only by services with an
	// outcome cache (WithOutcomeCacheBytes / WithCacheDir); empty otherwise.
	InputHash string
}

// Legalize runs the selected engine with default options on a clone of l.
func Legalize(l *Layout, engine Engine) (*Outcome, error) {
	return LegalizeWith(l, engine, Options{})
}

// LegalizeWith runs the selected engine with explicit options.
func LegalizeWith(l *Layout, engine Engine, opt Options) (*Outcome, error) {
	if l == nil {
		return nil, fmt.Errorf("flex: nil layout")
	}
	return legalize(context.Background(), l, engine, opt)
}

// legalize runs e on a clone of l through internal/engine's table: the one
// recipe behind LegalizeWith and a single-process service's executor. An
// engine that needs the FPGA holds one of ctx's modeled boards for the run.
func legalize(ctx context.Context, l *Layout, e Engine, opt Options) (*Outcome, error) {
	r, err := engine.Run(ctx, engine.Kind(e), l, engine.Options(opt))
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Layout: r.Layout, Metrics: r.Metrics, Legal: r.Legal, Violations: r.Violations,
		ModeledSeconds: r.ModeledSeconds, Engine: e,
	}, nil
}

// BatchJob describes one legalization job for Service.Submit or
// Service.Stream. Either set Layout directly, or name a Design (see
// Designs) and a Scale to have the job synthesize its own benchmark on a
// worker goroutine.
type BatchJob struct {
	// Design names a built-in benchmark to generate; ignored when Layout
	// is set.
	Design string
	// Scale is the generation scale factor (0 = 1.0, the paper's size).
	Scale float64
	// Layout is an explicit input layout. Engines legalize a clone, so the
	// same layout may be shared by several jobs.
	Layout *Layout
	// Engine selects the legalizer.
	Engine Engine
	// Options tunes the engine (zero value = paper defaults).
	Options Options
	// Tag is an optional caller label echoed in the job's BatchResult.
	Tag string
	// Shards splits the job's layout into that many horizontal row bands
	// (internal/shard) legalized as independent pool jobs and stitched back
	// into one result — the path that fits paper-scale designs through
	// workers that cannot hold a whole layout. 0 leaves the job unsharded
	// unless the service's WithAutoShardBytes threshold splits it; negative
	// forces the unsharded path; values above what the die can hold are
	// clamped. Shards == 1 still exercises the full split/stitch machinery
	// and is byte-identical to the unsharded path.
	Shards int
	// ShardHalo is the seam-crossing reassignment window, in rows, a
	// sharded job plans with: a cell whose global span pokes over a band
	// seam within this many rows may be bumped to the upper band when that
	// strictly shrinks its forced displacement. 0 means DefaultShardHalo;
	// negative disables the halo.
	ShardHalo int
	// Priority orders the job against everything else waiting on the
	// service: higher runs earlier. Levels are small integers around 0
	// (negative = background). Under the default scheduler a waiting job
	// gains one effective level per aging step, so low priorities are
	// delayed, never starved. Scheduling moves only when the job runs —
	// results stay byte-identical for any priority assignment.
	Priority int
	// Deadline, when non-zero, is the job's absolute completion target:
	// within one priority level the earliest deadline is scheduled first,
	// and a job whose deadline has already passed when a worker picks it
	// up fails fast with ErrDeadlineExceeded without running.
	Deadline time.Time
	// Client is the submitting tenant. The service's scheduler spreads
	// capacity across clients (fair sharing), caps one client's
	// concurrently running jobs (WithClientQuota), and bounds one client's
	// admitted jobs (WithClientQueueDepth — exceeding it rejects the batch
	// with ErrClientOverloaded). Empty is the shared anonymous client. A
	// sharded job's bands all carry the owner's client.
	Client string
	// Edits perturbs the job's input before legalization: each edit moves,
	// inserts or deletes a movable cell of the base layout (BaseHash,
	// Layout, or the generated Design, in that precedence). On a service
	// with an outcome cache a sharded edited job re-legalizes only the row
	// bands whose input changed and splices the cached base outcome's other
	// bands in — byte-identical to a full re-run of the edited layout;
	// without a cache (or when the base outcome is cold, plans a different
	// band count, or shares no band input with the edit) the edited layout
	// takes an ordinary full run.
	Edits []Edit
	// BaseHash names the job's input layout by content hash (LayoutHash, or
	// a previous Outcome.InputHash) instead of re-sending it: the layout is
	// resolved from the service's outcome cache. Requires
	// WithOutcomeCacheBytes or WithCacheDir; an unknown hash fails the job.
	BaseHash string
}

// BatchResult is one job's outcome within a batch.
type BatchResult struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Tag echoes the job's Tag.
	Tag string
	// Outcome is the finished legalization (nil when Err is set).
	Outcome *Outcome
	// Err is this job's failure, if any. Jobs that never started because
	// the batch was canceled report an error matched by IsBatchSkipped;
	// jobs whose deadline expired before they could start report
	// ErrDeadlineExceeded.
	Err error
	// Wall is the job's own wall-clock time.
	Wall time.Duration
	// SchedWait is the time the job spent queued for a worker under the
	// service's scheduler (for sharded jobs, summed over the bands) — the
	// per-class latency signal the sched experiment measures.
	SchedWait time.Duration
	// DeviceWait is the time the job queued for a modeled FPGA board;
	// DeviceHold is the time it occupied one. Zero for CPU-only engines.
	// For sharded jobs both sum over the bands, while Wall is the slowest
	// band's (the bands ran concurrently).
	DeviceWait time.Duration
	DeviceHold time.Duration
	// DeviceReconfigs counts board acquisitions that reprogrammed their
	// board because its previous holder ran a different job (summed over a
	// sharded job's bands; bands of one job share a configuration).
	DeviceReconfigs int
	// Shards holds a sharded job's per-band results in band order (bottom
	// to top; Index is the band index), nil for unsharded jobs. Outcome is
	// then the stitched whole-die result with metrics re-measured against
	// the original global placement, and ModeledSeconds is the slowest
	// band's — the modeled wall of a fully parallel sharded run.
	Shards []BatchResult
	// TraceID identifies the job's trace on a tracing service (WithTracing;
	// flexserve -trace): the 16-hex ID every span of the job
	// — including spans recorded on remote fleet workers — groups under.
	// Empty when tracing is off. Telemetry only: tracing never changes
	// result bytes.
	TraceID string
	// Spans is the job's finished span tree (admission, scheduler wait,
	// device wait/hold, per-band legalization, fleet RPCs, stitch, eco
	// splices), sorted by start offset within each level. Nil when tracing
	// is off.
	Spans []*TraceSpan
}

// TraceSpan is one node of a job's trace tree: a named wall-clock interval
// in microseconds since the trace origin, with nested child spans. Spans
// are pure telemetry — wall time never leaks into modeled seconds or
// result bytes (see docs/OBSERVABILITY.md).
type TraceSpan = obs.Span

// BatchSummary is a finished batch: per-job results in submission order
// plus aggregate statistics.
type BatchSummary struct {
	// Results holds one entry per submitted job, in submission order
	// regardless of worker count or completion order.
	Results []BatchResult
	// Errors counts jobs that ran and failed; Skipped counts jobs the
	// batch canceled before they started.
	Errors  int
	Skipped int
	// Workers is the effective pool size.
	Workers int
	// Wall is the batch's wall-clock time; WorkWall sums per-job wall
	// clocks (WorkWall/Wall approximates the achieved overlap).
	Wall     time.Duration
	WorkWall time.Duration
	// ModeledSeconds sums the deterministic modeled runtime of every
	// successful job — the batch's total simulated accelerator time —
	// plus ReconfigSeconds, the modeled board-programming overhead the
	// schedule incurred (zero unless WithReconfigCost is set).
	ModeledSeconds float64
	// FPGAs is the modeled board count the batch ran with (0 = unlimited).
	// DeviceWait sums the time FPGA jobs queued for a board; DeviceHold
	// sums board occupancy. DeviceWait > 0 alongside WorkWall > Wall is
	// the shared-accelerator signature: FLEX device phases serialized
	// while CPU work kept overlapping.
	FPGAs      int
	DeviceWait time.Duration
	DeviceHold time.Duration
	// SchedWait sums the time the batch's jobs queued for a worker.
	SchedWait time.Duration
	// Reconfigs counts board reconfigurations the batch's jobs incurred
	// (the board's previous holder ran a different job); ReconfigSeconds
	// is the modeled programming time charged for them. Unlike the
	// engines' modeled seconds these depend on the schedule — they
	// describe the run, not the design.
	Reconfigs       int
	ReconfigSeconds float64
}

// effectiveScale resolves the job's scale with the BatchJob convention:
// 0 means 1.0, the paper's size.
func (j BatchJob) effectiveScale() float64 {
	if j.Scale == 0 {
		return 1.0
	}
	return j.Scale
}

// resolveLayout returns the job's input layout, generating its Design
// reference through the supplied layout source (a Service's memoizing
// cache, or plain Generate) when no explicit layout is set.
func (j BatchJob) resolveLayout(generate func(design string, scale float64) (*Layout, error)) (*Layout, error) {
	if j.Layout != nil {
		return j.Layout, nil
	}
	return generate(j.Design, j.effectiveScale())
}

func (j BatchJob) toResult(r batch.Result[*Outcome]) BatchResult {
	return BatchResult{
		Index: r.Index, Tag: j.Tag,
		Outcome: r.Value, Err: r.Err, Wall: r.Wall,
		SchedWait:  r.SchedWait,
		DeviceWait: r.DeviceWait, DeviceHold: r.DeviceHold,
		DeviceReconfigs: r.DeviceReconfigs,
	}
}

// IsBatchSkipped reports whether a BatchResult's error means the job never
// started because the batch was canceled (context or fail-fast).
func IsBatchSkipped(err error) bool { return errors.Is(err, batch.ErrSkipped) }

// ErrDeadlineExceeded marks a job whose BatchJob.Deadline passed before the
// scheduler could start it: the job fails fast without running its engine,
// so an already-hopeless request never occupies a worker or a board. Match
// it with errors.Is on a BatchResult's Err.
var ErrDeadlineExceeded = sched.ErrDeadlineExceeded

// Designs lists the available benchmark names: the 16 IC/CAD 2017 designs
// of the paper's Table 1 plus the two superblue-scale designs of Fig. 2(b).
func Designs() []string {
	var names []string
	for _, s := range gen.ICCAD2017() {
		names = append(names, s.Name)
	}
	for _, s := range gen.Superblue() {
		names = append(names, s.Name)
	}
	return names
}

// validateScale rejects scale factors that cannot describe a benchmark
// size — zero, negative, NaN, or infinite — before any generation work.
func validateScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return fmt.Errorf("flex: scale must be a positive finite factor (1.0 = paper size), got %v", scale)
	}
	return nil
}

// lookupSpec validates the scale and resolves a design name — the shared
// front door of Generate and the Service's cached layout source, so both
// paths reject bad input with identical errors.
func lookupSpec(name string, scale float64) (gen.Spec, error) {
	if err := validateScale(scale); err != nil {
		return gen.Spec{}, err
	}
	spec, ok := gen.ByName(name)
	if !ok {
		return gen.Spec{}, fmt.Errorf("flex: unknown design %q (see Designs())", name)
	}
	return spec, nil
}

// Generate synthesizes the named benchmark at the given scale factor
// (1.0 = the paper's cell count; 0.02 is a laptop-friendly size). The
// scale must be a positive finite number and the name one of Designs().
func Generate(name string, scale float64) (*Layout, error) {
	spec, err := lookupSpec(name, scale)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale)
}

// GenerateCustom synthesizes an ad-hoc benchmark with the given movable
// cell count, design density and RNG seed. The cell count must be
// positive and the density in (0, 1] — a fraction of the free area (very
// high densities may still be rejected by the packer, which needs slack to
// place every cell legally).
func GenerateCustom(cells int, density float64, seed int64) (*Layout, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("flex: cell count must be positive, got %d", cells)
	}
	if math.IsNaN(density) || density <= 0 || density > 1 {
		return nil, fmt.Errorf("flex: density must be in (0, 1], got %v", density)
	}
	return gen.Small(cells, density, seed).Generate(1.0)
}

// ReadLayout decodes a layout in flexpl text format.
func ReadLayout(r io.Reader) (*Layout, error) { return model.Decode(r) }

// WriteLayout encodes a layout in flexpl text format.
func WriteLayout(w io.Writer, l *Layout) error { return model.Encode(w, l) }

// Measure recomputes quality metrics for a layout.
func Measure(l *Layout) Metrics { return model.Measure(l) }

// Check validates a layout and returns up to max violations (0 = all).
func Check(l *Layout, max int) []Violation { return l.Check(max) }
