package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/shard"
)

// workload is one seeded closed-loop traffic mix and the server set it runs
// against.
type workload struct {
	name    string
	clients int
	// fleetWorkers > 0 runs a coordinator in front of that many workers
	// (launched first, with workerArgs); otherwise one server takes args.
	fleetWorkers int
	workerArgs   []string
	args         []string
	// rate is a rough per-client request rate, used only to size how many
	// requests are generated before the window (the rest generate lazily).
	rate      float64
	newStream func(o options) (stream, error)
}

// stream is a workload's seeded request sequence and its correctness
// reference.
type stream interface {
	// setup runs against a freshly launched cluster as part of set-up
	// (eco_edits uploads and legalizes its base here).
	setup(ctx context.Context, hc *http.Client, base string) error
	// warmups are the fixed requests every set-up ends with.
	warmups() []*request
	// next returns request number seq of client's stream.
	next(client, seq int) *request
	// pregen generates the first n requests of every client's stream.
	pregen(n int)
	// digest hashes the pre-generated request bodies in stream order.
	digest() (string, int)
	// reference computes the rows one distinct input must be served with,
	// timing its calls into the program's entry points on sp (nil = untimed).
	reference(req *request, sp *spans) ([]expect, error)
}

// halo is the server's default seam window (flex.DefaultShardHalo); every
// sharded request and reference plans with it.
const halo = flex.DefaultShardHalo

// The workload shapes: ICCAD 2017 designs spanning density and height mix
// (dense des_perf_1, tall-heavy pci_b_a_md2 and edit_dist_a_md3, mid
// fft_2_md2), regenerated per request from the run seed.
var designShapes = []string{"des_perf_1", "pci_b_a_md2", "edit_dist_a_md3", "fft_2_md2"}

// The single-client workloads rotate through five shapes, not four: each
// shape forms its own latency cluster, and with an even count the median
// falls in the gap between two clusters, where it jumps with the mix.
//
// fleetShapes trade the two densest shapes for des_perf_b_md2 and the
// sparse fft_a_md2: cut into eight bands, a quarter of des_perf_1 inputs
// and about one fft_2_md2 input in sixty leave a band too crowded to
// legalize — a property of banding dense designs, not of serving.
var fleetShapes = []string{"des_perf_b_md2", "pci_b_a_md2", "edit_dist_a_md3", "fft_a_md2", "des_perf_a_md2"}

// table1Shapes avoid des_perf_1 and fft_2_md2, whose density makes the
// analytical baseline an order of magnitude slower than the rest at these
// sizes (and occasionally illegal at the smallest ones).
var table1Shapes = []string{"pci_b_a_md2", "edit_dist_a_md3", "fft_a_md2", "pci_b_b_md2", "pci_b_a_md1"}

// table1Engines are the five engines of the paper's Table 1, in job order.
var table1Engines = []string{"flex", "mgl", "mgl-mt", "gpu", "analytical"}

var workloads = map[string]*workload{
	"full_design": {
		name: "full_design", clients: 2, rate: 6,
		args: []string{"-workers", "2"},
		newStream: func(o options) (stream, error) {
			return newUploadStream(o, "full_design", 2, designShapes, 800, 1200, 0), nil
		},
	},
	"eco_edits": {
		name: "eco_edits", clients: 2, rate: 12,
		args: []string{"-workers", "2", "-outcome-cache-mb", "64"},
		newStream: func(o options) (stream, error) {
			return newEcoStream(o, 2, "edit_dist_a_md2", 10000, 16)
		},
	},
	"fleet_sharded": {
		name: "fleet_sharded", clients: 1, rate: 15,
		fleetWorkers: 2,
		workerArgs:   []string{"-mode", "worker", "-workers", "1"},
		// Each coordinator pool worker holds one band's RPC, so two bands are
		// in flight and every band's wire crossings lie on the job's path.
		args: []string{"-mode", "coordinator", "-workers", "2"},
		newStream: func(o options) (stream, error) {
			return newUploadStream(o, "fleet_sharded", 1, fleetShapes, 1200, 1800, 8), nil
		},
	},
	"table1_mix": {
		name: "table1_mix", clients: 1, rate: 15,
		args: []string{"-workers", "2"},
		newStream: func(o options) (stream, error) {
			return newTable1Stream(o, 1, table1Shapes, 400, 600), nil
		},
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mix derives an independent seed from the run seed, a stream label and an
// index (a splitmix64 finalizer over their combination).
func mix(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i+1)*0xd1b54a32d192ed03
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// genLayout synthesizes one input shaped like design (density, height mix,
// blockage) with about cells movable cells and its own seed.
func genLayout(design string, cells int, seed int64) (*flex.Layout, error) {
	spec, ok := gen.ByName(design)
	if !ok {
		return nil, fmt.Errorf("unknown design shape %q", design)
	}
	spec.Seed = seed
	return spec.Generate(float64(cells) / float64(spec.NumCells))
}

// sized scales a cell count by the -size multiplier.
func sized(o options, cells int) int { return max(int(math.Round(float64(cells)*o.size)), 64) }

func encode(l *flex.Layout) []byte {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = flex.WriteLayout(&buf, l)
	return buf.Bytes()
}

func bodyKey(path string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// lazy memoizes a pure request generator by global stream index, so
// requests can be pre-generated before the window and the rest made on
// demand, with identical bytes either way.
type lazy struct {
	mu      sync.Mutex
	reqs    map[int]*request
	clients int
	build   func(i int) *request
	pregenN int
}

func newLazy(clients int, build func(i int) *request) *lazy {
	return &lazy{reqs: map[int]*request{}, clients: clients, build: build}
}

func (l *lazy) get(i int) *request {
	l.mu.Lock()
	r, ok := l.reqs[i]
	l.mu.Unlock()
	if ok {
		return r
	}
	r = l.build(i) // outside the lock: build may recurse into get
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.reqs[i]; ok {
		return old
	}
	l.reqs[i] = r
	return r
}

// next maps (client, seq) to the global index seq·clients + client, so each
// client's sequence is fixed by the seed however the clients interleave.
func (l *lazy) next(client, seq int) *request { return l.get(seq*l.clients + client) }

// pregen builds the first n requests per client on two goroutines.
func (l *lazy) pregen(n int) {
	total := n * l.clients
	l.pregenN = total
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += 2 {
				l.get(i)
			}
		}(g)
	}
	wg.Wait()
}

// first returns requests 0..n-1 in stream order.
func (l *lazy) first(n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = l.get(i)
	}
	return out
}

func (l *lazy) digest() (string, int) {
	h := sha256.New()
	for i := 0; i < l.pregenN; i++ {
		r := l.get(i)
		h.Write([]byte(r.path))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil)), l.pregenN
}

// expect is what one result row must report: the in-process reference's
// verdict, quality and modeled time, and (when set) its band count and
// layout hash.
type expect struct {
	engine      string
	mustBeLegal bool
	legal       bool
	aveDis      float64
	maxDis      float64
	modeled     float64
	movable     int
	violations  int
	shards      int
	hash        string
}

func fromOutcome(engine string, o *flex.Outcome) expect {
	return expect{
		engine: engine, mustBeLegal: engine == "flex",
		legal: o.Legal, aveDis: o.Metrics.AveDis, maxDis: o.Metrics.MaxDis,
		modeled: o.ModeledSeconds, movable: o.Metrics.Movable, violations: len(o.Violations),
	}
}

// compare reports how row r disagrees with the reference, or nil. Floats
// compare exactly: the server encodes float64 in shortest round-trip form.
func (e expect) compare(r row) error {
	switch {
	case r.Legal == nil:
		return fmt.Errorf("%s: row has no legal verdict", e.engine)
	case e.mustBeLegal && !*r.Legal:
		return fmt.Errorf("%s: result is not legal (%d violations)", e.engine, r.Violations)
	case *r.Legal != e.legal:
		return fmt.Errorf("%s: legal=%v, reference %v", e.engine, *r.Legal, e.legal)
	case r.AveDis != e.aveDis || r.MaxDis != e.maxDis:
		return fmt.Errorf("%s: aveDis/maxDis %v/%v, reference %v/%v", e.engine, r.AveDis, r.MaxDis, e.aveDis, e.maxDis)
	case r.ModeledSeconds != e.modeled:
		return fmt.Errorf("%s: modeledSeconds %v, reference %v", e.engine, r.ModeledSeconds, e.modeled)
	case r.Movable != e.movable || r.Violations != e.violations:
		return fmt.Errorf("%s: movable/violations %d/%d, reference %d/%d", e.engine, r.Movable, r.Violations, e.movable, e.violations)
	case r.Shards != e.shards:
		return fmt.Errorf("%s: %d bands, reference %d", e.engine, r.Shards, e.shards)
	case e.hash != "" && r.LayoutHash != e.hash:
		return fmt.Errorf("%s: layoutHash %s, reference %s", e.engine, r.LayoutHash, e.hash)
	}
	return nil
}

// legalize runs one engine on l as a timed call of "<layer>.legalize".
func legalize(sp *spans, engine string, l *flex.Layout) (*flex.Outcome, error) {
	e, err := flex.ParseEngine(engine)
	if err != nil {
		return nil, err
	}
	layer := engine
	if engine == "flex" {
		layer = "core"
	}
	var out *flex.Outcome
	sp.time(layer+".legalize", func() { out, err = flex.LegalizeWith(l, e, flex.Options{}) })
	return out, err
}

// probeModel times Clone, Measure and Check on a result layout: the
// per-call cost on this workload's layouts.
func probeModel(sp *spans, l *flex.Layout) {
	if sp == nil {
		return
	}
	sp.time("model.clone", func() { l.Clone() })
	sp.time("model.measure", func() { flex.Measure(l) })
	sp.time("model.check", func() { flex.Check(l, 16) })
}

// shardedRun is the single-process sharded legalization the server's shard
// path must match: plan, split, legalize each band through band, stitch,
// then measure and check the stitched layout. The job is legal when every
// band is and the stitched layout has no violations; its modeled time is
// the slowest band's.
func shardedRun(l *flex.Layout, k int, sp *spans, band func(in *flex.Layout) (*flex.Outcome, error)) (expect, []*flex.Outcome, error) {
	var plan *shard.Plan
	var bands []*flex.Layout
	var err error
	sp.time("shard.plan", func() { plan, err = shard.PlanBands(l, k, halo) })
	if err != nil {
		return expect{}, nil, err
	}
	sp.time("shard.split", func() { bands, err = shard.Split(l, plan) })
	if err != nil {
		return expect{}, nil, err
	}
	outs := make([]*flex.Outcome, len(bands))
	layouts := make([]*flex.Layout, len(bands))
	legal, modeled := true, 0.0
	for b, in := range bands {
		o, err := band(in)
		if err != nil {
			return expect{}, nil, err
		}
		outs[b], layouts[b] = o, o.Layout
		legal = legal && o.Legal
		modeled = max(modeled, o.ModeledSeconds)
	}
	var stitched *flex.Layout
	sp.time("shard.stitch", func() { stitched, err = shard.Stitch(l, plan, layouts) })
	if err != nil {
		return expect{}, nil, err
	}
	sp.time("model.clone", func() { stitched.Clone() })
	var m flex.Metrics
	var v []flex.Violation
	sp.time("model.measure", func() { m = flex.Measure(stitched) })
	sp.time("model.check", func() { v = flex.Check(stitched, 16) })
	return expect{
		engine: "flex", mustBeLegal: true,
		legal: legal && len(v) == 0, aveDis: m.AveDis, maxDis: m.MaxDis,
		modeled: modeled, movable: m.Movable, violations: len(v),
		shards: len(plan.Bands),
	}, outs, nil
}

// --- full_design and fleet_sharded: raw flexpl uploads -----------------

// uploadStream sends one freshly generated layout per request as a raw
// flexpl body: unsharded (full_design) or split into shards bands
// (fleet_sharded). Shapes rotate through the design list; sizes and seeds
// come from the run seed.
type uploadStream struct {
	*lazy
	warm   *lazy
	shards int
}

func newUploadStream(o options, label string, clients int, shapes []string, lo, hi, shards int) *uploadStream {
	lo, hi = sized(o, lo), sized(o, hi)
	path := "/v1/legalize?engine=flex"
	if shards > 0 {
		path += fmt.Sprintf("&shards=%d", shards)
	}
	build := func(stream string) func(i int) *request {
		return func(i int) *request {
			rng := rand.New(rand.NewSource(mix(o.seed, stream, i)))
			cells := lo + rng.Intn(hi-lo+1)
			l, err := genLayout(shapes[i%len(shapes)], cells, rng.Int63())
			if err != nil {
				// The shapes and sizes are fixed; a failure is a generator bug.
				panic(fmt.Sprintf("generate %s input %d: %v", stream, i, err))
			}
			body := encode(l)
			return &request{key: bodyKey(path, body), path: path, ctype: "text/plain", body: body, jobs: 1}
		}
	}
	return &uploadStream{
		lazy:   newLazy(clients, build(label)),
		warm:   newLazy(clients, build(label+"/warmup")),
		shards: shards,
	}
}

func (s *uploadStream) setup(context.Context, *http.Client, string) error { return nil }

// warmupRequests is the number of warm-up requests each set-up ends with: enough
// CPU-bound work that setup_s is not dominated by process-launch jitter.
const warmupRequests = 4

func (s *uploadStream) warmups() []*request { return s.warm.first(warmupRequests) }

func (s *uploadStream) reference(req *request, sp *spans) ([]expect, error) {
	var l *flex.Layout
	var err error
	sp.time("model.decode", func() { l, err = flex.ReadLayout(bytes.NewReader(req.body)) })
	if err != nil {
		return nil, err
	}
	if s.shards == 0 {
		o, err := legalize(sp, "flex", l)
		if err != nil {
			return nil, err
		}
		probeModel(sp, o.Layout)
		return []expect{fromOutcome("flex", o)}, nil
	}
	// The fleet path: the coordinator ships each band as flexpl, a worker
	// decodes and legalizes it, and the result travels back to be decoded,
	// re-measured and re-checked before the stitch.
	var bandMs []float64
	exp, _, err := shardedRun(l, s.shards, sp, func(band *flex.Layout) (*flex.Outcome, error) {
		in, err := wireTrip(sp, band)
		if err != nil {
			return nil, err
		}
		t := sp.now()
		o, err := legalize(sp, "flex", in)
		if err != nil {
			return nil, err
		}
		bandMs = append(bandMs, sp.since(t))
		back, err := wireTrip(sp, o.Layout)
		if err != nil {
			return nil, err
		}
		sp.time("model.measure", func() { flex.Measure(back) })
		sp.time("model.check", func() { flex.Check(back, 16) })
		return &flex.Outcome{Layout: back, Legal: o.Legal, ModeledSeconds: o.ModeledSeconds}, nil
	})
	if err != nil {
		return nil, err
	}
	if sp != nil && len(bandMs) > 0 {
		sp.observe("shard.band_skew", ratio(quantile(bandMs, 1), mean(bandMs)))
	}
	return []expect{exp}, nil
}

// wireTrip encodes l as flexpl and decodes it again, as one hop of the
// fleet wire does, timing both halves.
func wireTrip(sp *spans, l *flex.Layout) (*flex.Layout, error) {
	var buf bytes.Buffer
	var err error
	sp.time("model.encode", func() { err = flex.WriteLayout(&buf, l) })
	if err != nil {
		return nil, err
	}
	var out *flex.Layout
	sp.time("model.decode", func() { out, err = flex.ReadLayout(&buf) })
	return out, err
}

// --- table1_mix: one layout, five engines ------------------------------

// table1Stream submits each generated layout as five JSON jobs, one per
// Table 1 engine.
type table1Stream struct {
	*lazy
	warm *lazy
}

type table1Job struct {
	Layout string `json:"layout"`
	Engine string `json:"engine"`
}

func newTable1Stream(o options, clients int, shapes []string, lo, hi int) *table1Stream {
	lo, hi = sized(o, lo), sized(o, hi)
	const path = "/v1/legalize"
	build := func(stream string) func(i int) *request {
		return func(i int) *request {
			rng := rand.New(rand.NewSource(mix(o.seed, stream, i)))
			cells := lo + rng.Intn(hi-lo+1)
			l, err := genLayout(shapes[i%len(shapes)], cells, rng.Int63())
			if err != nil {
				panic(fmt.Sprintf("generate %s input %d: %v", stream, i, err))
			}
			text := string(encode(l))
			var req struct {
				Jobs []table1Job `json:"jobs"`
			}
			for _, e := range table1Engines {
				req.Jobs = append(req.Jobs, table1Job{Layout: text, Engine: e})
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err) // plain strings always marshal
			}
			return &request{key: bodyKey(path, body), path: path, ctype: "application/json", body: body, jobs: len(table1Engines)}
		}
	}
	return &table1Stream{lazy: newLazy(clients, build("table1_mix")), warm: newLazy(clients, build("table1_mix/warmup"))}
}

func (s *table1Stream) setup(context.Context, *http.Client, string) error { return nil }

func (s *table1Stream) warmups() []*request { return s.warm.first(warmupRequests) }

func (s *table1Stream) reference(req *request, sp *spans) ([]expect, error) {
	var body struct {
		Jobs []table1Job `json:"jobs"`
	}
	if err := json.Unmarshal(req.body, &body); err != nil {
		return nil, err
	}
	var l *flex.Layout
	var err error
	sp.time("model.decode", func() { l, err = flex.ReadLayout(bytes.NewReader([]byte(body.Jobs[0].Layout))) })
	if err != nil {
		return nil, err
	}
	var out []expect
	for _, j := range body.Jobs {
		o, err := legalize(sp, j.Engine, l)
		if err != nil {
			return nil, err
		}
		if j.Engine == "flex" {
			probeModel(sp, o.Layout)
		}
		out = append(out, fromOutcome(j.Engine, o))
	}
	return out, nil
}

// --- eco_edits: single-cell edits against a cached base ------------------

// ecoStream legalizes one seeded base with `shards` bands during set-up and
// then sends single-cell, in-halo move edits against it by content hash.
// About one request in four repeats an earlier edit of the same client
// exactly (so it has completed and its outcome is cached).
type ecoStream struct {
	*lazy
	warm     *lazy
	base     *flex.Layout
	baseBody []byte
	baseHash string
	shards   int
	movable  []int

	memo     bandMemo
	baseOnce sync.Once
	baseErr  error
}

type ecoJob struct {
	Base   string      `json:"base"`
	Shards int         `json:"shards"`
	Edits  []flex.Edit `json:"edits"`
}

func newEcoStream(o options, clients int, design string, cells, shards int) (*ecoStream, error) {
	base, err := genLayout(design, sized(o, cells), mix(o.seed, "eco_edits/base", 0))
	if err != nil {
		return nil, err
	}
	s := &ecoStream{baseBody: encode(base), shards: shards, memo: bandMemo{m: map[string]*memoEntry{}}}
	// The server legalizes the decoded upload; edits and references apply to
	// the same decoded layout.
	if s.base, err = flex.ReadLayout(bytes.NewReader(s.baseBody)); err != nil {
		return nil, err
	}
	s.baseHash = flex.LayoutHash(s.base)
	for i, c := range s.base.Cells {
		if !c.Fixed {
			s.movable = append(s.movable, i)
		}
	}
	s.lazy = newLazy(clients, func(i int) *request { return s.build(o.seed, "eco_edits", i, clients, true) })
	s.warm = newLazy(clients, func(i int) *request { return s.build(o.seed, "eco_edits/warmup", i, clients, false) })
	return s, nil
}

// repeatWindow is how far back a repeat reaches into its client's own
// requests: recent enough that the outcome cache still holds the edit.
const repeatWindow = 8

// build makes request i: with repeats allowed, one in four (never a
// client's first) re-sends one of the same client's last repeatWindow
// requests verbatim.
func (s *ecoStream) build(seed int64, stream string, i, clients int, repeats bool) *request {
	rng := rand.New(rand.NewSource(mix(seed, stream, i)))
	if k := i / clients; repeats && k > 0 && rng.Intn(4) == 0 {
		back := 1 + rng.Intn(min(k, repeatWindow))
		orig := s.get((k-back)*clients + i%clients)
		r := *orig
		r.kind = "repeat"
		return &r
	}
	var e flex.Edit
	for {
		c := s.base.Cells[s.movable[rng.Intn(len(s.movable))]]
		gx := min(max(c.GX+rng.Intn(13)-6, 0), s.base.NumSitesX-c.W)
		gy := min(max(c.GY+rng.Intn(2*halo+1)-halo, 0), s.base.NumRows-c.H)
		if gx != c.GX || gy != c.GY {
			e = flex.Edit{Op: flex.EditMove, Cell: c.Name, GX: gx, GY: gy}
			break
		}
	}
	body, err := json.Marshal(struct {
		Jobs []ecoJob `json:"jobs"`
	}{Jobs: []ecoJob{{Base: s.baseHash, Shards: s.shards, Edits: []flex.Edit{e}}}})
	if err != nil {
		panic(err) // plain values always marshal
	}
	const path = "/v1/legalize"
	return &request{key: bodyKey(path, body), path: path, ctype: "application/json", body: body, jobs: 1, kind: "edit", edits: []flex.Edit{e}}
}

// setup uploads the base with the workload's band count, so the server
// legalizes and caches it, and checks the handle it reports.
func (s *ecoStream) setup(ctx context.Context, hc *http.Client, base string) error {
	path := fmt.Sprintf("/v1/legalize?engine=flex&shards=%d", s.shards)
	r := send(ctx, hc, base, &request{path: path, ctype: "text/plain", body: s.baseBody, jobs: 1})
	if f := r.failure(); f != "" {
		return fmt.Errorf("eco base upload: %s", f)
	}
	if rw := r.rows[0]; rw.Legal == nil || !*rw.Legal || rw.LayoutHash != s.baseHash {
		return fmt.Errorf("eco base upload: legal=%v layoutHash=%s, want legal and %s", rw.Legal != nil && *rw.Legal, rw.LayoutHash, s.baseHash)
	}
	return nil
}

func (s *ecoStream) warmups() []*request { return s.warm.first(warmupRequests) }

// reference re-runs the edited layout in full at the same band count. Band
// results are memoized by their input bytes — engines are pure functions of
// their input, so equal bytes give equal outcomes — which is what makes a
// full re-run per edit affordable; the memo never consults the server's
// dirty-band prediction. Along the way it times the serving path's own
// steps: apply, hash, plan, split, dirty marking, clean-band reuse, stitch
// and store.
func (s *ecoStream) reference(req *request, sp *spans) ([]expect, error) {
	s.baseOnce.Do(func() {
		// Fill the memo with the base's bands, untimed: the server did this
		// during set-up.
		_, _, s.baseErr = shardedRun(s.base, s.shards, nil, func(in *flex.Layout) (*flex.Outcome, error) {
			o, _, err := s.memo.get(string(encode(in)), func() (*flex.Outcome, error) { return legalize(nil, "flex", in) })
			return o, err
		})
	})
	if s.baseErr != nil {
		return nil, s.baseErr
	}
	var in *flex.Layout
	var err error
	sp.time("eco.apply", func() { in, err = eco.Apply(s.base, req.edits) })
	if err != nil {
		return nil, err
	}
	hashStart := sp.now()
	hash := flex.LayoutHash(in)
	hashMs := sp.since(hashStart)
	exp, outs, err := shardedRun(in, s.shards, sp, func(band *flex.Layout) (*flex.Outcome, error) {
		t := sp.now()
		flex.LayoutHash(band)
		hashMs += sp.since(t)
		o, hit, err := s.memo.get(string(encode(band)), func() (*flex.Outcome, error) { return legalize(sp, "flex", band) })
		if err != nil || !hit {
			return o, err
		}
		// A clean band is served from the cached outcome: clone, re-measure,
		// re-check.
		var cl *flex.Layout
		sp.time("model.clone", func() { cl = o.Layout.Clone() })
		sp.time("model.measure", func() { flex.Measure(cl) })
		sp.time("model.check", func() { flex.Check(cl, 16) })
		return &flex.Outcome{Layout: cl, Legal: o.Legal, ModeledSeconds: o.ModeledSeconds}, nil
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.observe("eco.hash_ms", hashMs)
		// Dirty marking on the edited layout's plan, as the splice decides it.
		plan, err := shard.PlanBands(in, s.shards, halo)
		if err != nil {
			return nil, err
		}
		touched, _, err := eco.DirtySpans(s.base, req.edits, halo)
		if err != nil {
			return nil, err
		}
		dirty := 0
		for _, d := range eco.MarkDirty(plan, touched) {
			if d {
				dirty++
			}
		}
		sp.observe("eco.dirty_bands", float64(dirty))
		// A new edit's finished run is stored: the stitched result and every
		// band are cloned into the cache entry.
		for _, o := range outs {
			sp.time("model.clone", func() { o.Layout.Clone() })
		}
	}
	exp.hash = hash
	return []expect{exp}, nil
}

// bandMemo memoizes band outcomes by the band's encoded input bytes; each
// key is computed once even when several verifiers ask concurrently.
type bandMemo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	out  *flex.Outcome
	err  error
}

// get returns key's outcome, computing it on first use; hit reports whether
// an earlier call computed it.
func (m *bandMemo) get(key string, compute func() (*flex.Outcome, error)) (out *flex.Outcome, hit bool, err error) {
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		e = &memoEntry{}
		m.m[key] = e
	}
	m.mu.Unlock()
	hit = true
	e.once.Do(func() {
		hit = false
		e.out, e.err = compute()
	})
	return e.out, hit, e.err
}
