package flex_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/eco"
	"github.com/flex-eda/flex/internal/engine"
	"github.com/flex-eda/flex/internal/mgl"
	"github.com/flex-eda/flex/internal/shard"
)

// submitOne runs one job on svc and returns its outcome, failing the test
// on any error.
func submitOne(t *testing.T, svc *flex.Service, job flex.BatchJob) *flex.Outcome {
	t.Helper()
	sum, err := svc.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r := sum.Results[0]
	if r.Err != nil {
		t.Fatalf("job failed: %v", r.Err)
	}
	return r.Outcome
}

// inHaloEdits builds a deterministic batch of n cell moves that each stay
// within maxDY rows of the cell's current band — the edits the incremental
// path must serve by splicing.
func inHaloEdits(t *testing.T, l *flex.Layout, n, maxDY int, rng *rand.Rand) []flex.Edit {
	t.Helper()
	var movable []int
	for i, c := range l.Cells {
		if !c.Fixed && c.Parity == 0 {
			movable = append(movable, i)
		}
	}
	if len(movable) == 0 {
		t.Fatal("layout has no movable cells")
	}
	edits := make([]flex.Edit, 0, n)
	used := make(map[string]bool)
	for len(edits) < n {
		c := l.Cells[movable[rng.Intn(len(movable))]]
		if used[c.Name] {
			continue
		}
		gy := c.GY + rng.Intn(2*maxDY+1) - maxDY
		if gy < 0 || gy+c.H > l.NumRows {
			continue
		}
		gx := rng.Intn(l.NumSitesX - c.W + 1)
		used[c.Name] = true
		edits = append(edits, flex.Edit{Op: flex.EditMove, Cell: c.Name, GX: gx, GY: gy})
	}
	return edits
}

// TestIncrementalByteIdenticalToFullRun is the tentpole property test: for
// randomized in-halo edit batches, the incremental result (cached base,
// spliced clean bands) must be byte-identical to a full re-run of the
// edited layout, across worker and board configurations, cold and warm.
// A move far past the halo also splices — the bands it leaves untouched
// still hash-match the base's — and still matches its full re-run.
func TestIncrementalByteIdenticalToFullRun(t *testing.T) {
	base, err := flex.GenerateCustom(600, 0.6, 33)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	for _, workers := range []int{1, 4} {
		for _, fpgas := range []int{1, 2} {
			rng := rand.New(rand.NewSource(7))
			edits := inHaloEdits(t, base, 5, 2, rng)

			// Reference: a cacheless service legalizes the edited layout in
			// full (this also exercises edits without an outcome cache).
			ref := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas))
			refOut := submitOne(t, ref, flex.BatchJob{Layout: base, Edits: edits, Engine: flex.EngineFLEX, Shards: shards})
			ref.Close()
			want := encodeLayout(t, refOut.Layout)
			if refOut.InputHash != "" {
				t.Fatalf("workers=%d fpgas=%d: cacheless outcome reports InputHash %q", workers, fpgas, refOut.InputHash)
			}

			svc := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas),
				flex.WithOutcomeCacheBytes(64<<20))

			// Cold cache: the eco job cannot splice (base outcome unknown)
			// and must fall back to a full run that still matches.
			coldOut := submitOne(t, svc, flex.BatchJob{Layout: base, Edits: edits, Engine: flex.EngineFLEX, Shards: shards})
			if got := encodeLayout(t, coldOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: cold eco result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Fallbacks != 1 || st.Incremental != 0 {
				t.Fatalf("workers=%d fpgas=%d: cold stats fallbacks=%d incremental=%d, want 1/0",
					workers, fpgas, st.Fallbacks, st.Incremental)
			}

			// Legalize the base so its outcome is cached, then edit against
			// it by content hash: the incremental path must splice.
			baseOut := submitOne(t, svc, flex.BatchJob{Layout: base, Engine: flex.EngineFLEX, Shards: shards})
			if baseOut.InputHash != flex.LayoutHash(base) {
				t.Fatalf("workers=%d fpgas=%d: base InputHash %q, want %q",
					workers, fpgas, baseOut.InputHash, flex.LayoutHash(base))
			}
			incOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edits, Engine: flex.EngineFLEX, Shards: shards})
			if got := encodeLayout(t, incOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: incremental result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Incremental != 1 {
				t.Fatalf("workers=%d fpgas=%d: incremental=%d after in-halo edit, want 1", workers, fpgas, st.Incremental)
			}
			if incOut.Legal != refOut.Legal || incOut.Metrics != refOut.Metrics ||
				incOut.ModeledSeconds != refOut.ModeledSeconds {
				t.Fatalf("workers=%d fpgas=%d: incremental outcome fields differ from full re-run", workers, fpgas)
			}

			// Warm repeat: the identical request is an exact outcome hit.
			before := svc.Stats()
			warmOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edits, Engine: flex.EngineFLEX, Shards: shards})
			if got := encodeLayout(t, warmOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: warm repeat differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.OutcomeHits <= before.OutcomeHits {
				t.Fatalf("workers=%d fpgas=%d: warm repeat did not hit the outcome cache", workers, fpgas)
			}

			// Out-of-halo edit: must splice the bands it leaves untouched
			// (stat-asserted) and match its own full re-run.
			far := farEdit(t, base)
			ref2 := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas))
			farWant := encodeLayout(t, submitOne(t, ref2, flex.BatchJob{Layout: base, Edits: far, Engine: flex.EngineFLEX, Shards: shards}).Layout)
			ref2.Close()
			before = svc.Stats()
			farOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: far, Engine: flex.EngineFLEX, Shards: shards})
			if got := encodeLayout(t, farOut.Layout); !bytes.Equal(farWant, got) {
				t.Fatalf("workers=%d fpgas=%d: out-of-halo result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Incremental != before.Incremental+1 || st.Fallbacks != before.Fallbacks {
				t.Fatalf("workers=%d fpgas=%d: out-of-halo edit did not splice (incremental %d -> %d, fallbacks %d -> %d)",
					workers, fpgas, before.Incremental, st.Incremental, before.Fallbacks, st.Fallbacks)
			}
			svc.Close()
		}
	}
}

// farEdit builds one move far past any halo: the first movable cell jumps
// half the die away.
func farEdit(t *testing.T, l *flex.Layout) []flex.Edit {
	t.Helper()
	for _, c := range l.Cells {
		if c.Fixed || c.Parity != 0 {
			continue
		}
		gy := c.GY + l.NumRows/2
		if gy+c.H > l.NumRows {
			gy = c.GY - l.NumRows/2
		}
		if gy < 0 || gy+c.H > l.NumRows {
			continue
		}
		return []flex.Edit{{Op: flex.EditMove, Cell: c.Name, GX: c.GX, GY: gy}}
	}
	t.Fatal("no cell admits an out-of-halo move")
	return nil
}

// submitCounted runs one job on svc and returns its outcome and the engine
// runs it took, observed through engine.WithObserver: a band the outcome
// cache serves runs no engine.
func submitCounted(t *testing.T, svc *flex.Service, job flex.BatchJob) (*flex.Outcome, []*engine.Result) {
	t.Helper()
	var (
		mu   sync.Mutex
		runs []*engine.Result
	)
	ctx := engine.WithObserver(context.Background(), func(r *engine.Result) {
		mu.Lock()
		runs = append(runs, r)
		mu.Unlock()
	})
	sum, err := svc.Submit(ctx, []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r := sum.Results[0]; r.Err != nil {
		t.Fatalf("job failed: %v", r.Err)
	}
	return sum.Results[0].Outcome, runs
}

// requirePlainRuns fails unless every engine run in runs reports the op
// counts and modeled seconds of a plain FLEX engine.Run of the band of l,
// split as a job with Shards k splits it, whose result has its bytes.
func requirePlainRuns(t *testing.T, l *flex.Layout, k int, runs []*engine.Result) {
	t.Helper()
	plan, err := shard.PlanBands(l, k, flex.DefaultShardHalo)
	if err != nil {
		t.Fatal(err)
	}
	bands, err := shard.Split(l, plan)
	if err != nil {
		t.Fatal(err)
	}
	plain := make(map[string]*engine.Result, len(bands))
	for _, b := range bands {
		r, err := engine.Run(context.Background(), engine.FLEX, b, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain[string(encodeLayout(t, r.Layout))] = r
	}
	for _, r := range runs {
		want, ok := plain[string(encodeLayout(t, r.Layout))]
		if !ok {
			t.Fatal("an engine run's result matches no band's plain run")
		}
		if !reflect.DeepEqual(r.Ops(), want.Ops()) || r.ModeledSeconds != want.ModeledSeconds {
			t.Fatalf("an engine run reports ops %v and %v modeled seconds, a plain run of its band %v and %v",
				r.Ops(), r.ModeledSeconds, want.Ops(), want.ModeledSeconds)
		}
	}
}

// bandHashes plans and splits l as a job with Shards k and the default
// halo does, returning the plan and each band's input hash.
func bandHashes(t *testing.T, l *flex.Layout, k int) (*shard.Plan, []string) {
	t.Helper()
	plan, err := shard.PlanBands(l, k, flex.DefaultShardHalo)
	if err != nil {
		t.Fatal(err)
	}
	bands, err := shard.Split(l, plan)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(bands))
	for i, b := range bands {
		hashes[i] = flex.LayoutHash(b)
	}
	return plan, hashes
}

// changedBands counts the edited layout's bands whose input differs from
// the base's band at the same index — every band, when the two plans have
// different band counts and so nothing can be reused.
func changedBands(base, edited []string) int {
	if len(base) != len(edited) {
		return len(edited)
	}
	n := 0
	for i := range edited {
		if edited[i] != base[i] {
			n++
		}
	}
	return n
}

// movableIn returns a movable any-parity cell owned by band b that lies
// wholly inside the band and satisfies ok, failing the test when none does.
func movableIn(t *testing.T, l *flex.Layout, band shard.Band, ok func(c flex.Cell) bool) flex.Cell {
	t.Helper()
	for _, i := range band.Source {
		if i < 0 {
			continue
		}
		c := l.Cells[i]
		if c.Parity == flex.ParityAny && c.GY >= band.LoRow && c.GY+c.H <= band.HiRow && ok(c) {
			return c
		}
	}
	t.Fatalf("band %d holds no eligible cell", band.Index)
	return flex.Cell{}
}

// TestEditRerunsOnlyChangedBands: an edit against a cached base runs the
// engine once per band whose input hash changed — not once per band the
// halo prediction (eco.DirtySpans, eco.MarkDirty) flags — and every result
// equals a cacheless full re-run byte for byte. A cold base still falls
// back to a full run of every band.
func TestEditRerunsOnlyChangedBands(t *testing.T) {
	const shards = 4
	base, err := flex.GenerateCustom(600, 0.6, 33)
	if err != nil {
		t.Fatal(err)
	}
	plan, baseIn := bandHashes(t, base, shards)
	if len(plan.Bands) != shards {
		t.Fatalf("base plans %d bands, want %d", len(plan.Bands), shards)
	}
	halo := flex.DefaultShardHalo
	top, bottom := plan.Bands[shards-1], plan.Bands[0]

	// A horizontal move of a cell whose halo-widened span reaches over its
	// band's upper seam: the prediction flags both bands, one changes.
	seam := movableIn(t, base, plan.Bands[1], func(c flex.Cell) bool {
		return c.GY+c.H+halo > plan.Bands[1].HiRow && c.GX+c.W+6 <= base.NumSitesX
	})
	nearSeam := []flex.Edit{{Op: flex.EditMove, Cell: seam.Name, GX: seam.GX + 6, GY: seam.GY}}
	spans, inHalo, err := eco.DirtySpans(base, nearSeam, halo)
	if err != nil || !inHalo {
		t.Fatalf("near-seam move: in halo %t, err %v", inHalo, err)
	}
	predicted := 0
	for _, d := range eco.MarkDirty(plan, spans) {
		if d {
			predicted++
		}
	}
	if predicted != 2 {
		t.Fatalf("near-seam move: prediction flags %d bands, want 2", predicted)
	}

	// A move from the bottom band into the top one, past any halo.
	low := movableIn(t, base, bottom, func(flex.Cell) bool { return true })
	across := []flex.Edit{{Op: flex.EditMove, Cell: low.Name, GX: low.GX, GY: top.LoRow + 2}}
	victim := movableIn(t, base, plan.Bands[2], func(flex.Cell) bool { return true })

	cases := []struct {
		name  string
		edits []flex.Edit
		runs  int
	}{
		{"move near a seam", nearSeam, 1},
		{"move across bands", across, 2},
		{"insert", []flex.Edit{{Op: flex.EditInsert, Cell: "eco_new", GX: 10, GY: plan.Bands[1].LoRow + 2, W: 3, H: 1}}, 1},
		{"delete", []flex.Edit{{Op: flex.EditDelete, Cell: victim.Name}}, 1},
	}
	svc := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(64<<20))
	defer svc.Close()
	baseOut := submitOne(t, svc, flex.BatchJob{Layout: base, Shards: shards})
	ref := flex.NewService(flex.WithWorkers(2))
	defer ref.Close()
	for _, tc := range cases {
		edited, err := eco.Apply(base, tc.edits)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, editIn := bandHashes(t, edited, shards)
		if got := changedBands(baseIn, editIn); got != tc.runs {
			t.Fatalf("%s: %d bands changed input, want %d", tc.name, got, tc.runs)
		}
		before := svc.Stats()
		out, runs := submitCounted(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: tc.edits, Shards: shards})
		if len(runs) != tc.runs {
			t.Fatalf("%s: %d engine runs, want %d (the bands whose input changed)", tc.name, len(runs), tc.runs)
		}
		if st := svc.Stats(); st.Incremental != before.Incremental+1 || st.Fallbacks != before.Fallbacks {
			t.Fatalf("%s: incremental %d -> %d, fallbacks %d -> %d; want a splice",
				tc.name, before.Incremental, st.Incremental, before.Fallbacks, st.Fallbacks)
		}
		want := submitOne(t, ref, flex.BatchJob{Layout: base, Edits: tc.edits, Shards: shards})
		if !bytes.Equal(encodeLayout(t, want.Layout), encodeLayout(t, out.Layout)) {
			t.Fatalf("%s: incremental result differs from full re-run", tc.name)
		}
	}

	// Cold base: nothing to splice from, so every band runs.
	cold := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(64<<20))
	defer cold.Close()
	out, runs := submitCounted(t, cold, flex.BatchJob{Layout: base, Edits: nearSeam, Shards: shards})
	if st := cold.Stats(); len(runs) != shards || st.Fallbacks != 1 || st.Incremental != 0 {
		t.Fatalf("cold base: %d runs, fallbacks %d, incremental %d; want %d/1/0", len(runs), st.Fallbacks, st.Incremental, shards)
	}
	want := submitOne(t, ref, flex.BatchJob{Layout: base, Edits: nearSeam, Shards: shards})
	if !bytes.Equal(encodeLayout(t, want.Layout), encodeLayout(t, out.Layout)) {
		t.Fatal("cold base: result differs from full re-run")
	}
}

// FuzzEditSpliceMatchesFullRun is the ECO differential target. The fuzz
// input picks a small generated base (shape: cell count, density and band
// count 2–6; seed) and a script of 1–3 edits of any op and distance. The
// base is legalized on a caching service and the edits are submitted
// against it by BaseHash: the result must have the bytes of a cacheless
// full re-run, and the engine must run exactly once per band whose input
// changed (every band, when the edits change the band count). Each band
// that re-runs replays the base band's placement steps (mgl.Trail), so
// the target covers the replay too: its reference runs with no cache and
// so no trail, and every engine run the incremental job makes must report
// the op counts and modeled seconds of a plain run of its band's input.
func FuzzEditSpliceMatchesFullRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, script []byte) {
		cells := 100 + 40*int(shape%8)
		density := 0.4 + 0.1*float64(shape/8%4)
		shards := 2 + int(shape/32)%5
		base, err := flex.GenerateCustom(cells, density, seed)
		if err != nil {
			return
		}
		edits := scriptEdits(base, script)
		if len(edits) == 0 {
			return
		}
		edited, err := eco.Apply(base, edits)
		if err != nil {
			t.Fatalf("script built invalid edits %+v: %v", edits, err)
		}
		_, baseIn := bandHashes(t, base, shards)
		_, editIn := bandHashes(t, edited, shards)

		svc := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(16<<20))
		defer svc.Close()
		baseOut := submitOne(t, svc, flex.BatchJob{Layout: base, Shards: shards})
		out, runs := submitCounted(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edits, Shards: shards})
		ref := flex.NewService(flex.WithWorkers(2))
		defer ref.Close()
		want := submitOne(t, ref, flex.BatchJob{Layout: base, Edits: edits, Shards: shards})
		if !bytes.Equal(encodeLayout(t, want.Layout), encodeLayout(t, out.Layout)) {
			t.Fatalf("edits %+v: incremental result differs from full re-run", edits)
		}
		if out.Legal != want.Legal || out.Metrics != want.Metrics || out.ModeledSeconds != want.ModeledSeconds {
			t.Fatalf("edits %+v: incremental outcome fields differ from full re-run", edits)
		}
		if changed := changedBands(baseIn, editIn); len(runs) != changed {
			t.Fatalf("edits %+v: %d engine runs, want %d (bands %d -> %d)", edits, len(runs), changed, len(baseIn), len(editIn))
		}
		requirePlainRuns(t, edited, shards, runs)
	})
}

// scriptEdits decodes a fuzz script into 1–3 valid edits of base: the
// first byte picks the count, then each edit reads an op, a cell, and a
// position anywhere on the die. An inserted cell is up to 4 sites by 6 rows,
// so it can raise the tallest-cell height and with it change the band
// count. A cell is edited at most once; a short script reads as zeros.
func scriptEdits(base *flex.Layout, script []byte) []flex.Edit {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	var movable []flex.Cell
	for _, c := range base.Cells {
		if !c.Fixed {
			movable = append(movable, c)
		}
	}
	n := 1 + next()%3
	edits := make([]flex.Edit, 0, n)
	used := make(map[string]bool)
	for i := 0; i < n; i++ {
		op, pick, x, y := next()%3, next()<<8|next(), next(), next()
		if op == 2 {
			w, h := 1+x%4, 1+y%6
			edits = append(edits, flex.Edit{Op: flex.EditInsert, Cell: fmt.Sprintf("fz%d", i),
				GX: (x * 31) % (base.NumSitesX - w + 1), GY: y % (base.NumRows - h + 1), W: w, H: h})
			continue
		}
		if len(movable) == 0 {
			continue
		}
		c := movable[pick%len(movable)]
		if used[c.Name] {
			continue
		}
		used[c.Name] = true
		if op == 1 {
			edits = append(edits, flex.Edit{Op: flex.EditDelete, Cell: c.Name})
			continue
		}
		edits = append(edits, flex.Edit{Op: flex.EditMove, Cell: c.Name,
			GX: (x * 31) % (base.NumSitesX - c.W + 1), GY: y % (base.NumRows - c.H + 1)})
	}
	return edits
}

// TestBaseHashRequiresOutcomeCache: naming a base by hash on a service
// without an outcome cache must fail the job, not silently full-run.
func TestBaseHashRequiresOutcomeCache(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1))
	defer svc.Close()
	sum, err := svc.Submit(context.Background(),
		[]flex.BatchJob{{BaseHash: "deadbeef", Engine: flex.EngineFLEX}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sum.Results[0].Err == nil {
		t.Fatal("BaseHash without an outcome cache should fail the job")
	}
}

// TestUnknownBaseHashFailsJob: an outcome-cache service must reject a base
// hash it has never seen rather than guess.
func TestUnknownBaseHashFailsJob(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithOutcomeCacheBytes(1<<20))
	defer svc.Close()
	sum, err := svc.Submit(context.Background(),
		[]flex.BatchJob{{BaseHash: "deadbeef", Engine: flex.EngineFLEX}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sum.Results[0].Err == nil {
		t.Fatal("unknown base hash should fail the job")
	}
}

// TestPlainOutcomeCacheServesRepeats: on the unsharded path a repeated
// explicit-layout job is served from the outcome cache — byte-identical,
// with the hit counted.
func TestPlainOutcomeCacheServesRepeats(t *testing.T) {
	l, err := flex.GenerateCustom(400, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	svc := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(32<<20))
	defer svc.Close()
	first := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX})
	if first.InputHash != flex.LayoutHash(l) {
		t.Fatalf("InputHash %q, want %q", first.InputHash, flex.LayoutHash(l))
	}
	second := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX})
	if !bytes.Equal(encodeLayout(t, first.Layout), encodeLayout(t, second.Layout)) {
		t.Fatal("cached repeat differs from first run")
	}
	st := svc.Stats()
	if st.OutcomeHits != 1 || st.OutcomeMisses != 1 {
		t.Fatalf("outcome hits/misses = %d/%d, want 1/1", st.OutcomeHits, st.OutcomeMisses)
	}
	// The cached layout must be cloned per serve: mutating one result must
	// not corrupt the cache.
	second.Layout.Cells[0].X++
	third := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX})
	if !bytes.Equal(encodeLayout(t, first.Layout), encodeLayout(t, third.Layout)) {
		t.Fatal("mutating a served result corrupted the cache")
	}
}

// cacheFile finds the -cache-dir file whose envelope key satisfies match,
// returning its path and parsed envelope.
func cacheFile(t *testing.T, dir string, match func(key string) bool) (string, map[string]any) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if key, _ := env["key"].(string); match(key) {
			return path, env
		}
	}
	t.Fatal("no cache file matches")
	return "", nil
}

// writeEnvelope rewrites one -cache-dir file.
func writeEnvelope(t *testing.T, path string, env map[string]any) {
	t.Helper()
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// isUnshardedOutcome matches the outcome key of an unsharded run.
func isUnshardedOutcome(key string) bool {
	return strings.HasPrefix(key, "outcome|") && strings.HasSuffix(key, "|bands=0|halo=0")
}

// logBuffer is a log sink safe for concurrent writers, so a test can read
// what a service logged while its goroutines may still write.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns what was logged so far and empties the buffer.
func (b *logBuffer) take() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.buf.String()
	b.buf.Reset()
	return s
}

// TestCacheDirPersistsAcrossRestart: outcomes of an unsharded and a sharded
// job survive a restart on the same -cache-dir and serve byte-identical
// repeats as hits. A planted pre-band, stitched-only entry for the
// unsharded key is warned about once, through the service's logger, and
// never served; the recomputed one-band entry replaces it, so the next
// restart reads clean.
func TestCacheDirPersistsAcrossRestart(t *testing.T) {
	l, err := flex.GenerateCustom(600, 0.6, 33)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var logs logBuffer
	open := func() *flex.Service {
		return flex.NewService(flex.WithWorkers(2), flex.WithCacheDir(dir),
			flex.WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	}
	jobs := []flex.BatchJob{{Layout: l, Tag: "unsharded"}, {Layout: l, Shards: 3, Tag: "sharded"}}
	run := func(svc *flex.Service, jobs []flex.BatchJob) []flex.BatchResult {
		t.Helper()
		sum, err := svc.Submit(context.Background(), jobs, flex.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sum.Results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Tag, r.Err)
			}
		}
		return sum.Results
	}
	requireStats := func(label string, st flex.ServiceStats, hits, misses, errs int64) {
		t.Helper()
		if st.OutcomeHits != hits || st.OutcomeMisses != misses || st.OutcomeErrors != errs {
			t.Fatalf("%s: outcome hits/misses/errors = %d/%d/%d, want %d/%d/%d",
				label, st.OutcomeHits, st.OutcomeMisses, st.OutcomeErrors, hits, misses, errs)
		}
	}

	svc := open()
	first := run(svc, jobs)
	requireStats("cold", svc.Stats(), 0, 2, 0)
	svc.Close()

	svc = open()
	if st := svc.Stats(); st.OutcomeLoaded == 0 {
		t.Fatal("restart loaded no entries")
	}
	for i, r := range run(svc, jobs) {
		requireSameOutcome(t, "restart "+r.Tag, first[i], r)
	}
	requireStats("restart", svc.Stats(), 2, 0, 0)
	svc.Close()

	// Plant the pre-band format: a stitched "result" claiming legality for
	// an unlegalized layout, with no bands.
	path, env := cacheFile(t, dir, isUnshardedOutcome)
	env["data"] = map[string]any{
		"kind": "outcome", "engine": "flex", "options": "t=0|w=0|pe1=false|off=false",
		"result": string(encodeLayout(t, l)), "legal": true, "modeledSeconds": 1,
	}
	writeEnvelope(t, path, env)
	logs.take()
	svc = open()
	u := run(svc, jobs[:1])[0]
	requireSameOutcome(t, "planted entry", first[0], u)
	requireStats("planted", svc.Stats(), 0, 1, 1)
	if got := strings.Count(logs.take(), "level=WARN msg=\"outcome cache\" path="+path); got != 1 {
		t.Fatalf("planted entry warned %d times, want once", got)
	}
	svc.Close()

	svc = open()
	defer svc.Close()
	u = run(svc, jobs[:1])[0]
	requireSameOutcome(t, "after replacement", first[0], u)
	requireStats("after replacement", svc.Stats(), 1, 0, 0)
}

// TestTamperedCacheEntryNeverLegal: a -cache-dir entry edited to hold an
// unlegalized layout under its stored legal verdict still hash-matches its
// input, so it is served — but its verdict counts only when the layout
// checks clean, so it is never reported legal.
func TestTamperedCacheEntryNeverLegal(t *testing.T) {
	l, err := flex.GenerateCustom(400, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *flex.Service {
		return flex.NewService(flex.WithWorkers(1), flex.WithCacheDir(dir))
	}
	svc := open()
	if out := submitOne(t, svc, flex.BatchJob{Layout: l}); !out.Legal {
		t.Fatal("honest run illegal")
	}
	svc.Close()

	path, env := cacheFile(t, dir, isUnshardedOutcome)
	data := env["data"].(map[string]any)
	band := data["bands"].([]any)[0].(map[string]any)
	if band["legal"] != true {
		t.Fatalf("stored band verdict %v, want true", band["legal"])
	}
	band["layout"] = string(encodeLayout(t, l))
	writeEnvelope(t, path, env)

	svc = open()
	defer svc.Close()
	out := submitOne(t, svc, flex.BatchJob{Layout: l})
	if st := svc.Stats(); st.OutcomeHits != 1 {
		t.Fatalf("tampered entry not served (hits %d)", st.OutcomeHits)
	}
	if len(out.Violations) == 0 || out.Legal {
		t.Fatalf("tampered entry served Legal=%v with %d violations", out.Legal, len(out.Violations))
	}
}

// stepCounts reads svc's flex_eco_steps_total, by path.
func stepCounts(t *testing.T, svc *flex.Service) (replayed, ran int) {
	t.Helper()
	s := scrapeService(t, svc)
	return int(s[`flex_eco_steps_total{path="replay"}`]), int(s[`flex_eco_steps_total{path="run"}`])
}

// submitSteps runs one job on svc and returns its outcome and the
// placement steps its band runs replayed and ran, by the service's own
// counts.
func submitSteps(t *testing.T, svc *flex.Service, job flex.BatchJob) (out *flex.Outcome, replayed, ran int) {
	t.Helper()
	r0, n0 := stepCounts(t, svc)
	out = submitOne(t, svc, job)
	r1, n1 := stepCounts(t, svc)
	return out, r1 - r0, n1 - n0
}

// requireBytes fails unless got has want's layout bytes and outcome fields.
func requireBytes(t *testing.T, label string, want, got *flex.Outcome) {
	t.Helper()
	if !bytes.Equal(encodeLayout(t, want.Layout), encodeLayout(t, got.Layout)) {
		t.Fatalf("%s: result differs from a cacheless full re-run", label)
	}
	if got.Legal != want.Legal || got.Metrics != want.Metrics || got.ModeledSeconds != want.ModeledSeconds {
		t.Fatalf("%s: outcome fields differ from a cacheless full re-run", label)
	}
}

// bandReplay legalizes band b of base with a fresh trail and then band b
// of edited replaying from it, straight through engine.Run, and returns
// the steps the replay replayed and ran. The replayed run must equal a run
// without a trail in layout, op counts and modeled seconds, and make one
// step per target it orders.
func bandReplay(t *testing.T, base, edited *flex.Layout, shards, b int) (replayed, ran int) {
	t.Helper()
	band := func(l *flex.Layout) *flex.Layout {
		plan, err := shard.PlanBands(l, shards, flex.DefaultShardHalo)
		if err != nil {
			t.Fatal(err)
		}
		bands, err := shard.Split(l, plan)
		if err != nil {
			t.Fatal(err)
		}
		return bands[b]
	}
	run := func(l *flex.Layout, tr *mgl.Trail) *engine.Result {
		ctx := context.Background()
		if tr != nil {
			ctx = engine.WithTrail(ctx, tr)
		}
		r, err := engine.Run(ctx, engine.FLEX, l, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rec := mgl.NewTrail(nil)
	run(band(base), rec)
	rec.Seal()
	tr := mgl.NewTrail(rec)
	got, plain := run(band(edited), tr), run(band(edited), nil)
	if !bytes.Equal(encodeLayout(t, got.Layout), encodeLayout(t, plain.Layout)) ||
		!reflect.DeepEqual(got.Ops(), plain.Ops()) || got.ModeledSeconds != plain.ModeledSeconds {
		t.Fatal("a replayed band run differs from a run without a trail")
	}
	if targets := plain.Ops()["order.ops"]; int64(tr.Replayed()+tr.Ran()) != targets {
		t.Fatalf("replayed run made %d steps, a plain run orders %d targets", tr.Replayed()+tr.Ran(), targets)
	}
	return tr.Replayed(), tr.Ran()
}

// TestEditReplaysBaseSteps: an edit against a cached base re-runs its
// changed band replaying the base band's placement steps, so most of them
// do not run again, and the result is a cacheless full re-run's, byte for
// byte. The service counts exactly the steps an independent replay of
// that band makes, and edits of the edited layout replay from its entry's
// trails, re-run and served bands alike. A cold base and a base loaded
// from a cache directory have no trail, so they replay nothing and still
// match; an unsharded edit replays from the unsharded base; and two
// concurrent edits of one base share its trails (run under -race).
func TestEditReplaysBaseSteps(t *testing.T) {
	const shards = 4
	base, err := flex.GenerateCustom(400, 0.6, 33)
	if err != nil {
		t.Fatal(err)
	}
	plan, baseIn := bandHashes(t, base, shards)
	if len(plan.Bands) != shards {
		t.Fatalf("base plans %d bands, want %d", len(plan.Bands), shards)
	}
	halo := flex.DefaultShardHalo
	moveIn := func(b, dx int) []flex.Edit {
		band := plan.Bands[b]
		c := movableIn(t, base, band, func(c flex.Cell) bool {
			return c.GY >= band.LoRow+halo && c.GY+c.H+halo <= band.HiRow && c.GX+c.W+dx <= base.NumSitesX
		})
		return []flex.Edit{{Op: flex.EditMove, Cell: c.Name, GX: c.GX + dx, GY: c.GY}}
	}
	edit := moveIn(1, 3)
	edited, err := eco.Apply(base, edit)
	if err != nil {
		t.Fatal(err)
	}
	if _, editIn := bandHashes(t, edited, shards); changedBands(baseIn, editIn) != 1 || editIn[1] == baseIn[1] {
		t.Fatal("the in-band move does not change exactly band 1")
	}
	ref := flex.NewService(flex.WithWorkers(2))
	defer ref.Close()
	want := submitOne(t, ref, flex.BatchJob{Layout: base, Edits: edit, Shards: shards})

	svc := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(64<<20))
	defer svc.Close()
	baseOut, replayed, ran := submitSteps(t, svc, flex.BatchJob{Layout: base, Shards: shards})
	if replayed != 0 || ran == 0 {
		t.Fatalf("base upload: %d steps replayed, %d ran; want none and some", replayed, ran)
	}
	job := flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edit, Shards: shards}
	out, replayed, ran := submitSteps(t, svc, job)
	requireBytes(t, "warm edit", want, out)
	if share := float64(replayed) / float64(replayed+ran); share < 0.7 {
		t.Fatalf("warm edit: %d of %d steps replayed (%.2f), want at least 70%%", replayed, replayed+ran, share)
	}
	if bandReplayed, bandRan := bandReplay(t, base, edited, shards, 1); replayed != bandReplayed || ran != bandRan {
		t.Fatalf("warm edit: service counts %d replayed, %d run; the band's own replay %d, %d", replayed, ran, bandReplayed, bandRan)
	}
	// Repeating the edit is an exact hit on its own entry: no band runs.
	if _, replayed, ran = submitSteps(t, svc, job); replayed != 0 || ran != 0 {
		t.Fatalf("exact repeat: %d steps replayed, %d ran; want no band run", replayed, ran)
	}
	// The edit's entry keeps a record for every band, its re-run band's
	// own and the base's for the bands it served, so edits of the edited
	// layout replay from both.
	for _, b := range []int{1, 2} {
		next := moveIn(b, 1)
		got, replayed, ran := submitSteps(t, svc, flex.BatchJob{BaseHash: out.InputHash, Edits: next, Shards: shards})
		requireBytes(t, fmt.Sprintf("edit of the edit, band %d", b), submitOne(t, ref, flex.BatchJob{Layout: edited, Edits: next, Shards: shards}), got)
		if share := float64(replayed) / float64(replayed+ran); share < 0.7 {
			t.Fatalf("edit of the edit, band %d: %d of %d steps replayed (%.2f), want at least 70%%", b, replayed, replayed+ran, share)
		}
	}

	cold := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(64<<20))
	defer cold.Close()
	out, replayed, ran = submitSteps(t, cold, flex.BatchJob{Layout: base, Edits: edit, Shards: shards})
	requireBytes(t, "cold base", want, out)
	if replayed != 0 || ran == 0 {
		t.Fatalf("cold base: %d steps replayed, %d ran; want none and some", replayed, ran)
	}

	dir := t.TempDir()
	disk := flex.NewService(flex.WithWorkers(2), flex.WithCacheDir(dir))
	submitOne(t, disk, flex.BatchJob{Layout: base, Shards: shards})
	disk.Close()
	disk = flex.NewService(flex.WithWorkers(2), flex.WithCacheDir(dir))
	defer disk.Close()
	out, replayed, ran = submitSteps(t, disk, job)
	requireBytes(t, "base loaded from disk", want, out)
	if st := disk.Stats(); replayed != 0 || ran == 0 || st.Incremental != 1 {
		t.Fatalf("base loaded from disk: %d steps replayed, %d ran, %d incremental; want a splice that replays nothing",
			replayed, ran, st.Incremental)
	}

	whole, err := flex.GenerateCustom(1200, 0.6, 34)
	if err != nil {
		t.Fatal(err)
	}
	var unsharded []flex.Edit
	for _, c := range whole.Cells {
		if !c.Fixed && c.GX+c.W+3 <= whole.NumSitesX {
			unsharded = []flex.Edit{{Op: flex.EditMove, Cell: c.Name, GX: c.GX + 3, GY: c.GY}}
			break
		}
	}
	wholeOut := submitOne(t, svc, flex.BatchJob{Layout: whole})
	out, replayed, ran = submitSteps(t, svc, flex.BatchJob{BaseHash: wholeOut.InputHash, Edits: unsharded})
	requireBytes(t, "unsharded edit", submitOne(t, ref, flex.BatchJob{Layout: whole, Edits: unsharded}), out)
	if share := float64(replayed) / float64(replayed+ran); share < 0.9 {
		t.Fatalf("unsharded edit: %d of %d steps replayed (%.2f), want at least 90%%", replayed, replayed+ran, share)
	}

	edits := [][]flex.Edit{moveIn(2, 2), moveIn(3, 4)}
	outs := make([]*flex.Outcome, len(edits))
	errs := make([]error, len(edits))
	var wg sync.WaitGroup
	for i, e := range edits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, err := svc.Submit(context.Background(), []flex.BatchJob{{BaseHash: baseOut.InputHash, Edits: e, Shards: shards}}, flex.SubmitOptions{})
			if err == nil {
				err = sum.Results[0].Err
			}
			if errs[i] = err; err == nil {
				outs[i] = sum.Results[0].Outcome
			}
		}()
	}
	wg.Wait()
	for i, e := range edits {
		if errs[i] != nil {
			t.Fatalf("concurrent edit %d: %v", i, errs[i])
		}
		requireBytes(t, fmt.Sprintf("concurrent edit %d", i), submitOne(t, ref, flex.BatchJob{Layout: base, Edits: e, Shards: shards}), outs[i])
	}
}
