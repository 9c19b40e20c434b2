package eco

import (
	"bytes"
	"strings"
	"testing"

	"github.com/flex-eda/flex/internal/model"
)

// FuzzDecodeValue feeds the -cache-dir entry decoder arbitrary keys and
// payloads — disk files are untrusted across restarts. The committed corpus
// (testdata/fuzz/FuzzDecodeValue) seeds a layout entry, one-band and
// four-band outcome entries, a pre-band stitched-only entry, and truncated
// JSON. Decoding must never panic; an accepted value must match its key's
// kind, re-encode to bytes that decode to an equal value, and — for a
// layout — hash-match its key.
func FuzzDecodeValue(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		v, size, err := DecodeValue(key, data)
		if err != nil {
			return // malformed input may be rejected, never panic
		}
		if size <= 0 {
			t.Fatalf("accepted value with size %d", size)
		}
		switch val := v.(type) {
		case *model.Layout:
			if !strings.HasPrefix(key, "layout|") || LayoutKey(Hash(val)) != key {
				t.Fatalf("layout with hash %s accepted under key %q", Hash(val), key)
			}
		case *Entry:
			if !strings.HasPrefix(key, "outcome|") || len(val.Bands) == 0 {
				t.Fatalf("entry with %d bands accepted under key %q", len(val.Bands), key)
			}
		default:
			t.Fatalf("decoded %T", v)
		}
		first, err := EncodeValue(key, v)
		if err != nil {
			t.Fatalf("accepted value does not re-encode: %v", err)
		}
		v2, _, err := DecodeValue(key, first)
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v\n%s", err, first)
		}
		second, err := EncodeValue(key, v2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoded value decodes to a different value:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
