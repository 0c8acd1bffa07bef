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

// attributeProfile reads a gzipped pprof CPU profile (as written by
// runtime/pprof) and counts its samples per host layer. A sample goes
// to the innermost frame of this repository on its stack: a
// repro/internal/<layer> function counts for <layer> and the
// benchmark's own code for "bench", so runtime frames below that frame
// (memmove, mallocgc, channel park) count toward it. Stacks without a
// repository frame go to "gc" (collector workers), "sched" (any other
// runtime frame) or "other".
func attributeProfile(gz []byte) (map[string]int64, error) {
	counts := map[string]int64{}
	p, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		var names []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				names = append(names, p.strings[p.funcName[fn]])
			}
		}
		counts[layerOf(names)] += s.count
	}
	return counts, nil
}

// readProfile decodes a gzipped pprof CPU profile; an empty one has no
// samples.
func readProfile(gz []byte) (*profile, error) {
	if len(gz) == 0 {
		return &profile{}, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// layerOf classifies one stack, leaf first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			for _, l := range hostLayers {
				if l == rest {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	runtimeOnly := len(stack) > 0
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "gc"
		}
		if !strings.HasPrefix(fn, "runtime.") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "sched"
	}
	return "other"
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
	cpu   int64 // sampled CPU time in nanoseconds
}

// parseProfile decodes the protobuf wire format of profile.proto:
// Profile{2: sample, 4: location, 5: function, 6: string_table},
// Sample{1: location_id, 2: value (samples, CPU ns)}, Location{1: id, 4: line},
// Line{1: function_id}, Function{1: id, 2: name}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			nv := 0
			err := fields(msg, func(num, wire int, v uint64, pk []byte) error {
				switch {
				case num == 1 && wire == 0:
					s.locs = append(s.locs, v)
				case num == 1:
					return varints(pk, func(x uint64) { s.locs = append(s.locs, x) })
				case num == 2 && wire == 0:
					s.setValue(nv, int64(v))
					nv++
				case num == 2:
					return varints(pk, func(x uint64) {
						s.setValue(nv, int64(x))
						nv++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(msg, func(num, wire int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(line, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(msg, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// setValue stores a CPU profile sample's i'th value: 0 is the sample
// count, 1 the sampled CPU time.
func (s *sample) setValue(i int, v int64) {
	switch i {
	case 0:
		s.count = v
	case 1:
		s.cpu = v
	}
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and wire type and either its integer value (varint and fixed
// types) or its bytes (length-delimited).
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
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
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a packed repeated varint field.
func varints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
