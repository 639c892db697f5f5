package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stack is one CPU profile sample: function names from the leaf
// outward (inlined frames expanded) and the sample's weight.
type stack struct {
	funcs  []string
	weight int64
}

// parseProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping only what attribution needs: each
// sample's call stack as function names, weighted by its first value
// (the sample count). Only the standard library is available, so this
// is a minimal protobuf reader for the handful of fields involved.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					values = appendVarints(values, wire, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.weight = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{weight: s.weight}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx >= 0 && idx < int64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
