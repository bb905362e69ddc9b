package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// The per-package CPU and allocation shares come from the runtime's own
// profiles, decoded here with the standard library alone: a gzipped pprof
// protobuf for CPU, runtime.MemProfile records for allocations. Each
// sample is charged to the innermost frame that belongs to this
// repository (import path "icares" or below), so time the runtime or the
// standard library spends on a package's behalf counts against that
// package. Samples with no such frame go to "outside".

// outsideKey names the share with no repository frame on the stack.
const outsideKey = "outside"

// pkgKey maps a symbol name to the repository package it belongs to:
// "icares/internal/crew.(*Engine).Step" -> "crew", the benchmark's own
// frames ("icares/bench...") -> "bench", the root facade -> "icares".
// ok is false for symbols outside the repository.
func pkgKey(fn string) (key string, ok bool) {
	// Receiver types and generic instantiations can contain dots and
	// slashes; the package path ends before the first of them.
	path := fn
	if i := strings.IndexAny(path, "[("); i >= 0 {
		path = path[:i]
	}
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		path = path[:slash+1+dot]
	}
	switch {
	case path == "icares":
		return "icares", true
	case strings.HasPrefix(path, "icares/internal/"):
		return strings.TrimPrefix(path, "icares/internal/"), true
	case path == "icares/bench" || strings.HasPrefix(path, "icares/bench/"):
		return "bench", true
	case strings.HasPrefix(path, "icares/"):
		return path[strings.LastIndexByte(path, '/')+1:], true
	}
	return "", false
}

// shares normalizes per-key weights to fractions summing to 1.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(w))
	if total <= 0 {
		return out
	}
	for k, v := range w {
		out[k] = v / total
	}
	return out
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// package's share of the samples, plus the sample count.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	w := make(map[string]float64)
	n := 0
	for _, s := range prof.samples {
		if len(s.values) == 0 || s.values[0] == 0 {
			continue
		}
		n += int(s.values[0])
		w[prof.attribute(s.locations)] += float64(s.values[0])
	}
	return shares(w), n, nil
}

// allocByPackage returns the bytes allocated since the program started,
// per package, estimated from runtime.MemProfile records. Each record's
// sampled bytes are scaled by the inverse of its sampling probability,
// the correction pprof applies, so packages making many small
// allocations are not undercounted. The profile lags by up to one
// garbage collection, so callers collect before reading.
func allocByPackage() map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := make(map[string]float64)
	for _, r := range recs {
		if r.AllocBytes == 0 || r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		out[innermostRepoFrame(r.Stack())] += bytes
	}
	return out
}

// innermostRepoFrame symbolizes a call stack (innermost first) and
// returns the package key of its first repository frame.
func innermostRepoFrame(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if key, ok := pkgKey(f.Function); ok {
			return key
		}
		if !more {
			return outsideKey
		}
	}
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name index in strings
	strings   []string
}

type profSample struct {
	locations []uint64 // innermost first
	values    []int64
}

// attribute returns the package key of a sample's innermost repository
// frame. A location lists inlined frames innermost first, so walking
// locations and then their lines visits frames from the leaf outward.
func (p *profile) attribute(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			idx := p.functions[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			if key, ok := pkgKey(p.strings[idx]); ok {
				return key
			}
		}
	}
	return outsideKey
}

// Field numbers of the pprof profile.proto messages read here.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseProfile decodes an uncompressed pprof profile.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locations, wire, v, data)
				case fSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its varint value or its payload.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
