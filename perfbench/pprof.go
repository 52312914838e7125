package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The pprof cross-check: the traced run profiles its untraced pass with
// runtime/pprof and attributes every CPU sample to the layers whose
// functions are on its stack, to set next to the replayed shares. The
// profile is the gzipped protobuf runtime/pprof writes; the few message
// fields needed are decoded here, by hand, to stay on the standard
// library.

// profileLayers maps a layer to the function-name prefix that puts a
// sample in it (inclusive: a sample counts for every layer on its stack).
var profileLayers = map[string]string{
	"dw":          "patlabor/internal/dw.",
	"rsmt":        "patlabor/internal/rsmt.",
	"lut":         "patlabor/internal/lut.",
	"hier_stitch": "patlabor/internal/hier.combine",
}

// crossChecked lists, per workload, the layers whose replayed share is
// comparable with the sampled one. Elsewhere the two shares measure
// different things: huge-net's top-level route runs DW windows the
// replay charges to hier.top, and small-nets' replay has no counterpart
// for the engine's dedup and dispatch, which the profile samples.
var crossChecked = map[string][]string{
	"iccad-mix":  {"dw", "rsmt", "lut"},
	"small-nets": {"dw"},
	"eco-churn":  {"dw", "rsmt", "lut"},
	"huge-net":   {"hier_stitch"},
}

// crossCheckBound is the largest absolute difference between a layer's
// sampled and replayed shares at which the two are said to agree.
const crossCheckBound = 0.10

// crossCheck returns the largest gap between the sampled and replayed
// shares of the workload's cross-checked layers, and an error when it
// exceeds crossCheckBound: the replay no longer splits the time the way
// the program spends it.
func crossCheck(workload string, sampled, replayed map[string]float64) (float64, error) {
	var gap float64
	var worst string
	for _, layer := range crossChecked[workload] {
		if d := math.Abs(sampled[layer] - replayed[layer]); d > gap {
			gap, worst = d, layer
		}
	}
	if gap > crossCheckBound {
		return gap, fmt.Errorf("pprof cross-check: %s share sampled %.3f, replayed %.3f (gap %.3f > bound %.2f)",
			worst, sampled[worst], replayed[worst], gap, crossCheckBound)
	}
	return gap, nil
}

// profileShares reads a CPU profile and returns, per layer, the share of
// the program's samples (those with any patlabor/internal frame) that
// have the layer on their stack, with the number of program samples.
func profileShares(path string) (map[string]float64, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	var total int64
	in := map[string]int64{}
	for _, s := range p.samples {
		names := p.stackNames(s.locs)
		if !hasPrefix(names, "patlabor/internal/") {
			continue
		}
		total += s.value
		for layer, prefix := range profileLayers {
			if hasPrefix(names, prefix) {
				in[layer] += s.value
			}
		}
	}
	shares := map[string]float64{}
	for layer := range profileLayers {
		shares[layer] = ratio(float64(in[layer]), float64(total))
	}
	return shares, total, nil
}

func hasPrefix(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

type profSample struct {
	locs  []uint64
	value int64 // the first sample value: the sample count
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, inlined frames included
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

func (p *profile) stackNames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			if i := p.funcNames[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// Field numbers of the profile.proto messages read here.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocField   = 1
	sampleValueField = 2

	locIDField    = 1
	locLineField  = 4
	lineFuncField = 1

	funcIDField   = 1
	funcNameField = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			first := true
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case sampleLocField:
					return eachVarint(w, v, sb, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValueField:
					return eachVarint(w, v, sb, func(x uint64) {
						if first {
							s.value, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case locIDField:
					id = v
				case locLineField:
					return eachField(sb, func(f, w int, v uint64, _ []byte) error {
						if f == lineFuncField {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profFunctionField:
			var id uint64
			name := int64(-1)
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case funcIDField:
					id = v
				case funcNameField:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in sub.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed or not.
func eachVarint(wire int, v uint64, sub []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		sub = sub[n:]
	}
	return nil
}
