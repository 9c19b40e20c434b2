package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// EncodeFunc serializes a cached value for the disk layer; the key is
// supplied so one codec can persist several value kinds.
type EncodeFunc func(key string, v any) ([]byte, error)

// DecodeFunc parses bytes written by the matching EncodeFunc back into the
// value and its resident size. Any error marks the file corrupt: it is
// skipped with a warning and never served.
type DecodeFunc func(key string, data []byte) (v any, size int64, err error)

// Disk layers content-addressed file persistence under an LRU: every store
// also writes a file named by the hex SHA-256 of the key, loads re-populate
// the LRU on construction, and a lookup that misses memory falls back to
// disk before computing. Eviction is memory-only — files survive so a
// restarted process re-warms from the same directory.
//
// The file format is a small JSON envelope {"v":1,"key":…,"data":…} whose
// data payload the codec owns. A file that fails to read, parse, decode, or
// whose recorded key does not match is reported through the warn callback
// once and not read again; the entry is recomputed, never served corrupt,
// and the recomputed value replaces the bad file.
type Disk struct {
	lru  *LRU
	dir  string // "" = memory-only
	enc  EncodeFunc
	dec  DecodeFunc
	warn func(path string, err error)

	// stale holds the paths of files that failed to read or decode; the
	// next store of their key replaces them. Valid files are never
	// rewritten.
	stale sync.Map

	diskHits atomic.Int64
	loaded   atomic.Int64
	errors   atomic.Int64
}

// DiskStats extends the LRU snapshot with the persistence counters.
type DiskStats struct {
	// Stats is the in-memory LRU accounting.
	Stats
	// DiskHits counts lookups that missed memory but loaded from a file;
	// Loaded counts entries restored at construction; Errors counts
	// corrupt or unwritable files skipped with a warning.
	DiskHits, Loaded, Errors int64
}

// envelope is the on-disk file framing.
type envelope struct {
	V    int             `json:"v"`
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// NewDisk builds a persistent cache bounded to maxBytes of resident values.
// With a non-empty dir the directory is created if needed and every
// decodable entry in it is loaded (oldest first, so the newest files win
// the resident set when over budget). warn receives one call per skipped
// file and may be nil.
func NewDisk(maxBytes int64, dir string, enc EncodeFunc, dec DecodeFunc, warn func(path string, err error)) (*Disk, error) {
	d := &Disk{lru: New(maxBytes), dir: dir, enc: enc, dec: dec, warn: warn}
	if d.warn == nil {
		d.warn = func(string, error) {}
	}
	if dir == "" {
		return d, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	type file struct {
		path string
		mod  int64
	}
	var files []file
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, file{path: filepath.Join(dir, ent.Name()), mod: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		key, v, size, err := d.readFile(f.path, "")
		if err != nil {
			d.reject(f.path, err)
			continue
		}
		d.lru.Add(key, v, size)
		d.loaded.Add(1)
	}
	return d, nil
}

// path returns the content-addressed file for a key.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// readFile loads one envelope. With wantKey != "" the recorded key must
// match; otherwise the recorded key is returned (load-on-start path).
func (d *Disk) readFile(path, wantKey string) (key string, v any, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, 0, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return "", nil, 0, fmt.Errorf("bad envelope: %w", err)
	}
	if env.V != 1 {
		return "", nil, 0, fmt.Errorf("unknown envelope version %d", env.V)
	}
	if env.Key == "" {
		return "", nil, 0, fmt.Errorf("missing key")
	}
	if wantKey != "" && env.Key != wantKey {
		return "", nil, 0, fmt.Errorf("key mismatch: file records %q", env.Key)
	}
	v, size, err = d.dec(env.Key, env.Data)
	if err != nil {
		return "", nil, 0, err
	}
	return env.Key, v, size, nil
}

// reject counts and warns about a file that failed to read or decode, and
// marks it stale so lookups skip it and the next store replaces it.
func (d *Disk) reject(path string, err error) {
	d.errors.Add(1)
	d.warn(path, err)
	d.stale.Store(path, true)
}

// tryLoad fetches a key from disk, counting hits and rejecting corruption.
func (d *Disk) tryLoad(key string) (any, int64, bool) {
	if d.dir == "" {
		return nil, 0, false
	}
	path := d.path(key)
	if _, stale := d.stale.Load(path); stale {
		return nil, 0, false
	}
	if _, err := os.Stat(path); err != nil {
		return nil, 0, false
	}
	_, v, size, err := d.readFile(path, key)
	if err != nil {
		d.reject(path, err)
		return nil, 0, false
	}
	d.diskHits.Add(1)
	return v, size, true
}

// store writes the entry's file via a temp file and an atomic rename; an
// already-present valid file is left alone (keys are content addresses, so
// equal keys carry equal payloads), while a stale one is replaced. Failures
// warn and are otherwise ignored — persistence is best-effort.
func (d *Disk) store(key string, v any) {
	if d.dir == "" {
		return
	}
	path := d.path(key)
	if _, stale := d.stale.Load(path); !stale {
		if _, err := os.Stat(path); err == nil {
			return
		}
	}
	data, err := d.enc(key, v)
	if err != nil {
		d.errors.Add(1)
		d.warn(path, err)
		return
	}
	env, err := json.Marshal(envelope{V: 1, Key: key, Data: data})
	if err != nil {
		d.errors.Add(1)
		d.warn(path, err)
		return
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		d.errors.Add(1)
		d.warn(path, err)
		return
	}
	_, werr := tmp.Write(env)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		d.warn(path, werr)
		return
	}
	d.stale.Delete(path)
}

// Do returns the value cached under key, looking memory first, then disk,
// and computing (and persisting) on a full miss. Concurrent Do calls on one
// key share a single computation, exactly like LRU.Do.
func (d *Disk) Do(key string, compute func() (any, int64, error)) (any, error) {
	return d.lru.Do(key, func() (any, int64, error) {
		if v, size, ok := d.tryLoad(key); ok {
			return v, size, nil
		}
		v, size, err := compute()
		if err != nil {
			return nil, 0, err
		}
		d.store(key, v)
		return v, size, nil
	})
}

// Get returns the value under key from memory or disk without computing.
// A disk hit is promoted into the LRU.
func (d *Disk) Get(key string) (any, bool) {
	if v, ok := d.lru.Get(key); ok {
		return v, true
	}
	if v, size, ok := d.tryLoad(key); ok {
		d.lru.Add(key, v, size)
		return v, true
	}
	return nil, false
}

// Add stores v under key in memory and on disk.
func (d *Disk) Add(key string, v any, size int64) {
	d.lru.Add(key, v, size)
	d.store(key, v)
}

// Stats snapshots the cache's accounting.
func (d *Disk) Stats() DiskStats {
	return DiskStats{
		Stats:    d.lru.Stats(),
		DiskHits: d.diskHits.Load(),
		Loaded:   d.loaded.Load(),
		Errors:   d.errors.Load(),
	}
}
