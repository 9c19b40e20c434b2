package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// stringCodec is the test codec: values are plain strings, resident size is
// their length.
func stringCodec() (EncodeFunc, DecodeFunc) {
	enc := func(key string, v any) ([]byte, error) {
		return json.Marshal(v.(string))
	}
	dec := func(key string, data []byte) (any, int64, error) {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, 0, err
		}
		return s, int64(len(s)), nil
	}
	return enc, dec
}

func newTestDisk(t *testing.T, maxBytes int64, dir string, warn func(string, error)) *Disk {
	t.Helper()
	enc, dec := stringCodec()
	d, err := NewDisk(maxBytes, dir, enc, dec, warn)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	d := newTestDisk(t, 1<<20, dir, nil)
	d.Add("k1", "v1", 2)
	d.Add("k2", "v2", 2)

	// A fresh instance over the same directory is warm without computing.
	d2 := newTestDisk(t, 1<<20, dir, nil)
	st := d2.Stats()
	if st.Loaded != 2 || st.Errors != 0 {
		t.Fatalf("loaded/errors = %d/%d, want 2/0", st.Loaded, st.Errors)
	}
	for k, want := range map[string]string{"k1": "v1", "k2": "v2"} {
		if v, ok := d2.Get(k); !ok || v.(string) != want {
			t.Fatalf("Get(%s) = %v, %v; want %q", k, v, ok, want)
		}
	}
}

func TestDiskDoSingleFlightUnderRace(t *testing.T) {
	// Concurrent Do calls on one key must run compute exactly once — the
	// rest block and share the result — even with disk persistence layered
	// underneath. Run with -race.
	d := newTestDisk(t, 1<<20, t.TempDir(), nil)
	var computes atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 32
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := d.Do("shared", func() (any, int64, error) {
				computes.Add(1)
				return "computed", 8, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "computed" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	st := d.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, callers-1)
	}
}

func TestDiskEvictionNeverLosesInFlightResult(t *testing.T) {
	// Eviction pressure while a computation is in flight must not affect
	// its waiters: in-flight calls live outside the LRU's resident set, and
	// every waiter reads the call's own result even if the finished entry
	// is evicted immediately. Run with -race.
	d := newTestDisk(t, 64, t.TempDir(), nil)
	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := d.Do("slow", func() (any, int64, error) {
			close(computing)
			<-release
			return "slow-value", 32, nil
		})
		if err != nil || v.(string) != "slow-value" {
			t.Errorf("slow Do = %v, %v", v, err)
		}
	}()
	<-computing
	// Churn the byte budget hard while the computation is paused, then a
	// second waiter joins the in-flight call before it finishes.
	for i := 0; i < 64; i++ {
		d.Add(fmt.Sprintf("churn-%d", i), "xxxxxxxx", 32)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := d.Do("slow", func() (any, int64, error) {
			t.Error("second compute ran for an in-flight key")
			return nil, 0, nil
		})
		if err != nil || v.(string) != "slow-value" {
			t.Errorf("waiter Do = %v, %v", v, err)
		}
	}()
	close(release)
	wg.Wait()
	if st := d.Stats(); st.Evictions == 0 {
		t.Fatal("churn produced no evictions; the test exercised nothing")
	}
}

func TestDiskCorruptFilesWarnedNeverServed(t *testing.T) {
	dir := t.TempDir()
	d := newTestDisk(t, 1<<20, dir, nil)
	d.Add("good", "good-value", 10)
	d.Add("bad", "bad-value", 9)
	d.Add("trunc", "trunc-value", 11)

	// Corrupt one file's payload and truncate another, bypassing the cache.
	if err := os.WriteFile(d.path("bad"), []byte(`{"v":1,"key":"bad","data":12}`), 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(d.path("trunc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("trunc"), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var warned []string
	warn := func(path string, err error) {
		mu.Lock()
		defer mu.Unlock()
		warned = append(warned, filepath.Base(path))
	}
	d2 := newTestDisk(t, 1<<20, dir, warn)
	st := d2.Stats()
	if st.Loaded != 1 || st.Errors != 2 {
		t.Fatalf("loaded/errors = %d/%d, want 1/2", st.Loaded, st.Errors)
	}
	if len(warned) != 2 {
		t.Fatalf("warn called for %v, want the 2 corrupt files", warned)
	}
	if v, ok := d2.Get("good"); !ok || v.(string) != "good-value" {
		t.Fatalf("good entry lost: %v, %v", v, ok)
	}
	// The corrupt entries are recomputed, never served from the bad bytes.
	for _, key := range []string{"bad", "trunc"} {
		if _, ok := d2.Get(key); ok {
			t.Fatalf("corrupt %s entry was served", key)
		}
		var ran bool
		v, err := d2.Do(key, func() (any, int64, error) {
			ran = true
			return "fresh-" + key, 10, nil
		})
		if err != nil || !ran || v.(string) != "fresh-"+key {
			t.Fatalf("Do(%s) = %v, %v (ran=%t)", key, v, err, ran)
		}
	}
	if len(warned) != 2 {
		t.Fatalf("warn called for %v, want each corrupt file once", warned)
	}
	// A valid file is never rewritten, even by a store of another value.
	d2.Add("good", "other-value", 11)

	// The recomputed values replaced the bad files: a restart is clean.
	d3 := newTestDisk(t, 1<<20, dir, nil)
	if st := d3.Stats(); st.Loaded != 3 || st.Errors != 0 {
		t.Fatalf("after replacement loaded/errors = %d/%d, want 3/0", st.Loaded, st.Errors)
	}
	for key, want := range map[string]string{"good": "good-value", "bad": "fresh-bad", "trunc": "fresh-trunc"} {
		if v, ok := d3.Get(key); !ok || v.(string) != want {
			t.Fatalf("after restart Get(%s) = %v, %v; want %q", key, v, ok, want)
		}
	}
}

func TestDiskKeyMismatchRejected(t *testing.T) {
	// A file whose envelope records a different key than its content
	// address must not be served under the looked-up key (e.g. a file
	// copied between cache directories by hand).
	dir := t.TempDir()
	d := newTestDisk(t, 1<<20, dir, nil)
	d.Add("original", "value", 5)
	// Graft original's envelope onto another key's content address.
	data, err := os.ReadFile(d.path("original"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("grafted"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var warned atomic.Int64
	enc, dec := stringCodec()
	d2, err := NewDisk(1<<20, dir, enc, dec, func(string, error) { warned.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// Load-on-start accepts both files under their recorded key — fine:
	// both record "original". The lookup path must reject the graft.
	d2.lru = New(1 << 20) // force disk reads
	if _, ok := d2.Get("grafted"); ok {
		t.Fatal("grafted file served under the wrong key")
	}
	if warned.Load() == 0 {
		t.Fatal("key mismatch produced no warning")
	}
	if v, ok := d2.Get("original"); !ok || v.(string) != "value" {
		t.Fatalf("original entry lost: %v, %v", v, ok)
	}
}

func TestDiskMemoryOnly(t *testing.T) {
	d := newTestDisk(t, 1<<20, "", nil)
	var computes int
	for i := 0; i < 2; i++ {
		if _, err := d.Do("k", func() (any, int64, error) {
			computes++
			return "v", 1, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	st := d.Stats()
	if st.DiskHits != 0 || st.Loaded != 0 || st.Errors != 0 {
		t.Fatalf("memory-only cache touched disk: %+v", st)
	}
}

func TestDiskConcurrentMixedKeysUnderRace(t *testing.T) {
	// Many goroutines hammering overlapping keys through Do/Get/Add with a
	// tight byte bound: the test asserts only invariants (no panic, no
	// wrong value, single flight per key per generation) and exists to give
	// -race a workload over the disk layer. Run with -race.
	d := newTestDisk(t, 256, t.TempDir(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%5)
				want := "value-" + key
				v, err := d.Do(key, func() (any, int64, error) {
					return want, 32, nil
				})
				if err != nil || v.(string) != want {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
				if v, ok := d.Get(key); ok && v.(string) != want {
					t.Errorf("Get(%s) = %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
