package flex_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	flex "github.com/flex-eda/flex"
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
// Out-of-halo edits must take the fallback path — observed via the
// Fallbacks stat — and still match.
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
			before := svc.Stats().OutcomeHits
			warmOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edits, Engine: flex.EngineFLEX, Shards: shards})
			if got := encodeLayout(t, warmOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: warm repeat differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.OutcomeHits <= before {
				t.Fatalf("workers=%d fpgas=%d: warm repeat did not hit the outcome cache", workers, fpgas)
			}

			// Out-of-halo edit: must fall back (stat-asserted) and match its
			// own full re-run.
			far := farEdit(t, base)
			ref2 := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas))
			farWant := encodeLayout(t, submitOne(t, ref2, flex.BatchJob{Layout: base, Edits: far, Engine: flex.EngineFLEX, Shards: shards}).Layout)
			ref2.Close()
			fb := svc.Stats().Fallbacks
			farOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: far, Engine: flex.EngineFLEX, Shards: shards})
			if got := encodeLayout(t, farOut.Layout); !bytes.Equal(farWant, got) {
				t.Fatalf("workers=%d fpgas=%d: out-of-halo result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Fallbacks != fb+1 {
				t.Fatalf("workers=%d fpgas=%d: out-of-halo edit did not take the fallback path (fallbacks %d -> %d)",
					workers, fpgas, fb, st.Fallbacks)
			}
			svc.Close()
		}
	}
}

// farEdit builds one move that ripples far past any halo: the first
// movable cell jumps half the die away.
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
