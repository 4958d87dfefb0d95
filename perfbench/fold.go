package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file charges CPU profile samples to the program's layers. A
// sample goes to the innermost frame of its stack that belongs to a
// wgtt package — so math.Sin called from internal/rf counts as rf — and
// a sample with no wgtt frame at all (GC, the scheduler, the
// benchmark's own bookkeeping) counts as runtime.

// layers lists every layer a CPU sample can be charged to: the
// internal packages, "facade" for the root wgtt package, and runtime.
var layers = []string{
	"rf", "channel", "csi", "phy", "mac", "ap", "queue", "controller",
	"backhaul", "deploy", "core", "sim", "wire", "telemetry", "trace",
	"transport", "workload", "baseline", "runner", "scenario", "mobility",
	"client", "packet", "federation", "stats", "facade", "runtime",
}

// layerOf maps a pprof function name to its layer, or "" when the
// function is outside the wgtt module.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "wgtt/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "wgtt.") {
		return "facade"
	}
	return ""
}

// foldStacks charges each stack's value to its innermost wgtt frame.
// Stacks list function names innermost first.
func foldStacks(stacks [][]string, values []int64) map[string]int64 {
	out := map[string]int64{}
	for i, st := range stacks {
		layer := "runtime"
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += values[i]
	}
	return out
}

// cpuProfile is a running runtime/pprof CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into CPU nanoseconds per layer.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	stacks, values, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("parse CPU profile: %w", err)
	}
	return foldStacks(stacks, values), nil
}

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof and returns each sample's stack (function names,
// innermost first, inlined frames expanded) and its last value — CPU
// nanoseconds for a CPU profile.
func parseProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	values := make([]int64, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, nil, errors.New("sample without values")
		}
		var st []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				si := fnName[fid]
				if si < 0 || si >= int64(len(strs)) {
					return nil, nil, fmt.Errorf("function %d names string %d of %d", fid, si, len(strs))
				}
				st = append(st, strs[si])
			}
		}
		stacks = append(stacks, st)
		values = append(values, s.vals[len(s.vals)-1])
	}
	return stacks, values, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one
// value (data == nil) or a packed run.
func varints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
