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

// A stdlib-only reader for the gzipped profile.proto that runtime/pprof
// writes, decoding just what CPU attribution needs: each sample's stack
// (leaf first) and sample count, with frames resolved to function names.
// Inlined frames share a location; its lines run innermost first.

type profile struct {
	samples []profSample
	frames  map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]uint64   // function id -> name's string-table index
	strs    []string
}

type profSample struct {
	locs  []uint64
	count int64
}

var errProto = errors.New("pprof: malformed protobuf")

// fields calls f for each field of one protobuf message: its number,
// wire type, and either the varint/fixed value or the bytes of a
// length-delimited field.
func fields(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errProto
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped runtime/pprof profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{frames: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	err = fields(raw, func(num, wire int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = uints(s.locs, wire, v, data)
				case 2:
					values, err = uints(values, wire, v, data)
				}
				return err
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.frames[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *profile) funcName(id uint64) string {
	if i := p.funcs[id]; i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// cpuShares charges each sample to the innermost frame in one of this
// repository's layers: fdw/internal/<module> gives <module>.cpu_share,
// the benchmark's own code harness.cpu_share. Samples with no such frame
// go to runtime.gc_cpu_share when their stack holds the background GC
// worker and to runtime.other_cpu_share otherwise. Shares sum to 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		counts[p.layerOf(s)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("pprof: the CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(counts))
	for k, n := range counts {
		shares[k] = float64(n) / float64(total)
	}
	return shares, nil
}

func (p *profile) layerOf(s profSample) string {
	gc := false
	for _, loc := range s.locs {
		for _, fn := range p.frames[loc] {
			name := p.funcName(fn)
			if rest, ok := strings.CutPrefix(name, "fdw/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					rest = rest[:i]
				}
				return rest + ".cpu_share"
			}
			if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "fdw/bench/") {
				return "harness.cpu_share"
			}
			gc = gc || strings.Contains(name, "gcBgMarkWorker")
		}
	}
	if gc {
		return "runtime.gc_cpu_share"
	}
	return "runtime.other_cpu_share"
}
