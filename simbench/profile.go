package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced pass runs under runtime/pprof. The standard library writes
// the profile as gzipped protobuf (profile.proto) and ships no reader, so
// this file decodes the few fields layer attribution needs.

// Field numbers of profile.proto.
const (
	fieldSample   = 2
	fieldLocation = 4
	fieldFunction = 5
	fieldStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited field.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields decodes the top level of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated varint field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// profile is a CPU profile reduced to what attribution needs: the
// function names of every location, innermost first, and each sample's
// stack and CPU nanoseconds.
type profile struct {
	locFuncs map[uint64][]string
	samples  []profSample
}

type profSample struct {
	locs []uint64 // leaf first
	ns   int64
}

// parseProfile decodes a gzipped runtime/pprof CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locLines := map[uint64][]uint64{}
	p := &profile{locFuncs: map[uint64][]string{}}
	for _, f := range top {
		var err error
		switch f.num {
		case fieldStrings:
			strs = append(strs, string(f.bytes))
		case fieldFunction:
			err = decodeFunction(f.bytes, funcName)
		case fieldLocation:
			err = decodeLocation(f.bytes, locLines)
		case fieldSample:
			var s profSample
			s, err = decodeSample(f.bytes)
			p.samples = append(p.samples, s)
		}
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, fn := range fns {
			if si := funcName[fn]; si < uint64(len(strs)) {
				names[i] = strs[si]
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

func decodeFunction(b []byte, funcName map[uint64]uint64) error {
	fs, err := pbFields(b)
	if err != nil {
		return err
	}
	var id, name uint64
	for _, f := range fs {
		switch f.num {
		case functionID:
			id = f.value
		case functionName:
			name = f.value
		}
	}
	funcName[id] = name
	return nil
}

func decodeLocation(b []byte, locLines map[uint64][]uint64) error {
	fs, err := pbFields(b)
	if err != nil {
		return err
	}
	var id uint64
	var fns []uint64
	for _, f := range fs {
		switch f.num {
		case locationID:
			id = f.value
		case locationLine:
			lf, err := pbFields(f.bytes)
			if err != nil {
				return err
			}
			for _, l := range lf {
				if l.num == lineFunction {
					fns = append(fns, l.value)
				}
			}
		}
	}
	locLines[id] = fns
	return nil
}

func decodeSample(b []byte) (profSample, error) {
	var s profSample
	fs, err := pbFields(b)
	if err != nil {
		return s, err
	}
	var values []uint64
	for _, f := range fs {
		var vs []uint64
		switch f.num {
		case sampleLocation:
			vs, err = f.varints()
			s.locs = append(s.locs, vs...)
		case sampleValue:
			vs, err = f.varints()
			values = append(values, vs...)
		}
		if err != nil {
			return s, err
		}
	}
	// A CPU profile's values are [samples, cpu nanoseconds].
	if len(values) != 2 {
		return s, fmt.Errorf("sample has %d values, want 2", len(values))
	}
	s.ns = int64(values[1])
	return s, nil
}

// layerPackages lists the repro/internal packages each profile layer
// covers. Any other internal package is the layer "other".
var layerPackages = map[string][]string{
	"sim":       {"sim"},
	"cpu":       {"cpu", "proc", "machine"},
	"pelt":      {"pelt"},
	"freqmodel": {"freqmodel", "governor"},
	"policy":    {"cfs", "core", "smove", "sched", "naive"},
	"workload":  {"workload"},
	"metrics":   {"metrics"},
	"obs":       {"obs"},
}

var packageLayer = func() map[string]string {
	m := map[string]string{}
	for layer, pkgs := range layerPackages {
		for _, p := range pkgs {
			m[p] = layer
		}
	}
	return m
}()

// layerOf maps a function name to its simulator layer through its package
// under repro/internal. Functions of the benchmark itself (package main,
// named by its import path in tests) are the harness; anything else (the
// Go runtime and standard library) is not a layer and returns "".
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/simbench.") {
		return "harness"
	}
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if layer, ok := packageLayer[pkg]; ok {
		return layer
	}
	return "other"
}

// layerShares charges each sample to the innermost layer frame on its
// stack (so math.Exp called from pelt counts for pelt) and returns each
// layer's share of CPU time in percent; stacks with no layer frame count
// as "runtime".
func (p *profile) layerShares() map[string]float64 {
	ns := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(fn); l != "" {
					layer = l
					break stack
				}
			}
		}
		ns[layer] += s.ns
		total += s.ns
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range ns {
		out[l] = 100 * float64(v) / float64(total)
	}
	return out
}
