package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// modulePath is the program's module; its packages bucket by their own name.
const modulePath = "github.com/flex-eda/flex"

// sample is one CPU-profile sample: its call stack as function names, leaf
// first, and the CPU time it stands for in nanoseconds.
type sample struct {
	stack []string
	cpuNs int64
}

// parseProfile decodes a (gzipped) pprof profile.proto into samples. It
// reads only what bucketing needs — sample types, samples, locations,
// functions and the string table — with a minimal protobuf wire decoder,
// since the module allows no dependencies.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types    [][2]int64 // (type, unit) string indices
		raw      []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> name string index
		strs     []string
	)
	err := walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := walk(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					s.locs = appendUvarints(s.locs, w, v, pb)
				case 2:
					for _, x := range appendUvarints(nil, w, v, pb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU-time value column is the one typed "cpu"; fall back to the
	// last column.
	col := len(types) - 1
	for i, t := range types {
		if str(t[0]) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(raw))
	for _, r := range raw {
		if col >= len(r.values) {
			continue
		}
		s := sample{cpuNs: r.values[col]}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walk calls fn for each top-level field of a protobuf message: varint and
// fixed-width fields arrive as v, length-delimited ones as b.
func walk(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendUvarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// funcPackage returns the import path of a profiled function name such as
// "github.com/flex-eda/flex/internal/fop.(*pe).run" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// gcFrames mark a runtime sample as garbage collection or allocation when
// any frame of its stack starts with one of them.
var gcFrames = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
	"runtime.wbBuf", "runtime.bulkBarrier",
}

// layerOf buckets one sample by its leaf frame's package into the
// program's layers:
//
//   - internal/fop and internal/curve → fop;
//   - crypto/sha256 (and the FIPS module behind it) and internal/eco → eco;
//   - net/http, encoding/json and cmd/flexserve (package main in the
//     profiled binary) → flexserve;
//   - runtime frames under garbage collection or allocation → gc;
//   - any other package of the module → its own name (order, region,
//     shift, abacus, model, shard, …); the module root → flex;
//   - other leaves — standard-library helpers such as slices and sort, and
//     runtime work like memmove or map access — bill the nearest frame of
//     the module that called them, else runtime (for runtime leaves) or
//     other.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := funcPackage(stack[0])
	if l := directLayer(pkg); l != "" {
		return l
	}
	isRuntime := pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
	if isRuntime {
		for _, fn := range stack {
			for _, g := range gcFrames {
				if strings.HasPrefix(fn, g) {
					return "gc"
				}
			}
		}
	}
	for _, fn := range stack[1:] {
		if p := funcPackage(fn); p == modulePath || strings.HasPrefix(p, modulePath+"/") {
			return directLayer(p)
		}
	}
	if isRuntime {
		return "runtime"
	}
	return "other"
}

// directLayer names the layer a package's own frames belong to, or "" for
// packages that bill their caller.
func directLayer(pkg string) string {
	switch {
	case pkg == "crypto/sha256" || strings.HasPrefix(pkg, "crypto/internal/fips140/sha256"):
		return "eco"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "encoding/json":
		return "flexserve"
	case pkg == modulePath:
		return "flex"
	case pkg == "main": // the profiled processes are flexserve binaries
		return "flexserve"
	case strings.HasPrefix(pkg, modulePath+"/"):
		rel := strings.TrimPrefix(pkg, modulePath+"/")
		switch rel {
		case "internal/fop", "internal/curve":
			return "fop"
		case "cmd/flexserve":
			return "flexserve"
		}
		return rel[strings.LastIndexByte(rel, '/')+1:]
	}
	return ""
}

// modelFuncs are the model entry points the serving path calls on every
// result and band layout, by metric name. Their inclusive CPU share drops
// when the server checks, measures or clones less.
var modelFuncs = map[string]string{
	"check":   modulePath + "/internal/model.(*Layout).Check",
	"measure": modulePath + "/internal/model.Measure",
	"clone":   modulePath + "/internal/model.(*Layout).Clone",
}

// inclusiveShare returns the share of the sampled CPU time whose stack
// contains fn anywhere: time in fn and in everything it calls.
func inclusiveShare(samples []sample, fn string) float64 {
	var in, total float64
	for _, s := range samples {
		total += float64(s.cpuNs)
		if slices.Contains(s.stack, fn) {
			in += float64(s.cpuNs)
		}
	}
	return ratio(in, total)
}

// cpuShares buckets samples by layer and returns each layer's share of the
// total sampled CPU time.
func cpuShares(samples []sample) map[string]float64 {
	total := 0.0
	by := map[string]float64{}
	for _, s := range samples {
		by[layerOf(s.stack)] += float64(s.cpuNs)
		total += float64(s.cpuNs)
	}
	for k, v := range by {
		by[k] = ratio(v, total)
	}
	return by
}
