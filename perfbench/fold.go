package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The fold charges each profile sample to one layer: the innermost
// frame that belongs to an amoeba/internal module decides. Frames from
// the standard library (math, slices, runtime.mallocgc, ...) therefore
// count for the module that called them, and a sample with no module
// frame at all (GC workers, the scheduler) counts as runtime. Frames of
// this benchmark's own probes count as obs, the observation layer.

// layerOf folds modules into the layers the benchmark reports. Modules
// mapped to "" are value types and helpers (units, workload profiles,
// the platform model, table rendering) whose frames count for their
// caller. autoscale scales IaaS VMs and folds into iaas.
var layerOf = map[string]string{
	"sim":        "sim",
	"trace":      "trace",
	"arrival":    "arrival",
	"serverless": "serverless",
	"contention": "serverless",
	"iaas":       "iaas",
	"autoscale":  "iaas",
	"engine":     "engine",
	"controller": "controller",
	"queueing":   "controller",
	"surfaces":   "controller",
	"monitor":    "monitor",
	"pca":        "monitor",
	"linalg":     "monitor",
	"meters":     "monitor",
	"metrics":    "metrics",
	"stats":      "metrics",
	"resources":  "resources",
	"core":       "core",
	"obs":        "obs",
	"profiling":  "setup",
	"units":      "",
	"workload":   "",
	"cluster":    "",
	"report":     "",
}

const modulePrefix = "amoeba/internal/"

// frameLayer returns the layer a function's frame is charged to, or ""
// if the frame is not a module frame.
func frameLayer(fn string) string {
	// The probes are package main: "main." in the built benchmark,
	// "amoeba/perfbench." in its test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "amoeba/perfbench.") {
		return "obs"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	mod := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		mod = rest[:i]
	}
	l, known := layerOf[mod]
	if !known {
		return "other"
	}
	return l
}

// foldStack charges a stack, innermost frame first, to a layer.
func foldStack(fns []string) string {
	for _, fn := range fns {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// cpuByLayer folds a CPU profile into sampled CPU nanoseconds per
// layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := p.valueIndex("cpu")
	if vi < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	return p.fold(vi), nil
}

// allocsByLayer folds the objects allocated between two allocs-profile
// snapshots into each layer's share.
func allocsByLayer(beforeGz, afterGz []byte) (map[string]float64, error) {
	var by [2]map[string]int64
	for i, gz := range [][]byte{beforeGz, afterGz} {
		p, err := parseProfile(gz)
		if err != nil {
			return nil, err
		}
		vi := p.valueIndex("alloc_objects")
		if vi < 0 {
			return nil, errors.New("profile has no alloc_objects sample type")
		}
		by[i] = p.fold(vi)
	}
	diff := map[string]int64{}
	for l, v := range by[1] {
		diff[l] = v - by[0][l]
	}
	total := sumValues(diff)
	if total <= 0 {
		return nil, errors.New("no allocations sampled")
	}
	return shares(diff, total), nil
}

func sumValues(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

func shares(m map[string]int64, total int64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for l, v := range m {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// profile is the part of a pprof profile the fold reads.
type profile struct {
	sampleTypes []int64 // string-table indices of each value's type
	samples     []pbSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> string-table index of its name
	strings     []string
}

type pbSample struct {
	locations []uint64 // innermost first
	values    []int64
}

func (p *profile) valueIndex(typ string) int {
	for i, s := range p.sampleTypes {
		if s >= 0 && int(s) < len(p.strings) && p.strings[s] == typ {
			return i
		}
	}
	return -1
}

// fold sums value vi of every sample by the layer its stack folds to.
func (p *profile) fold(vi int) map[string]int64 {
	by := map[string]int64{}
	var fns []string
	for _, s := range p.samples {
		fns = fns[:0]
		for _, loc := range s.locations {
			for _, f := range p.locations[loc] {
				if n, ok := p.functions[f]; ok && n >= 0 && int(n) < len(p.strings) {
					fns = append(fns, p.strings[n])
				}
			}
		}
		if vi < len(s.values) {
			by[foldStack(fns)] += s.values[vi]
		}
	}
	return by
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto): the
// sample types, samples, locations with their inlined lines, functions
// and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			var typ int64 = -1
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample: {location_id = 1, value = 2}
			var s pbSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return eachUint(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachUint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id = 1, line = 4 {function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id uint64
			var name int64 = -1
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped; pprof uses none the fold reads.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field's values, packed (b != nil)
// or not.
func eachUint(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
