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

// profileLayers are the layers a CPU profile folds into: the modules of
// mproxy/internal, then the runtime costs no module owns directly.
var profileLayers = []string{
	"sim", "machine", "topo", "comm", "proxy", "am", "kv", "openloop", "flight",
	"memory", "apps", "progmodel", "workload", "scenario", "other",
	"gc", "alloc", "coro", "runtime",
}

// layerOfPkg maps an mproxy package path to its layer. Packages not
// listed (arch, fault, rel, trace, ...) fold into "other"; every package
// under internal/apps is "apps".
var layerOfPkg = map[string]string{
	"mproxy/internal/sim":               "sim",
	"mproxy/internal/sim/par":           "sim",
	"mproxy/internal/machine":           "machine",
	"mproxy/internal/machine/topo":      "topo",
	"mproxy/internal/comm":              "comm",
	"mproxy/internal/proxy":             "proxy",
	"mproxy/internal/am":                "am",
	"mproxy/internal/kv":                "kv",
	"mproxy/internal/workload/openloop": "openloop",
	"mproxy/internal/trace/flight":      "flight",
	"mproxy/internal/memory":            "memory",
	"mproxy/internal/coll":              "progmodel",
	"mproxy/internal/crl":               "progmodel",
	"mproxy/internal/splitc":            "progmodel",
	"mproxy/internal/mpi":               "progmodel",
	"mproxy/internal/costmodel":         "progmodel",
	"mproxy/internal/workload":          "workload",
	"mproxy/internal/scenario":          "scenario",
}

// foldProfile decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time (shares sum to 1; all zero for a
// profile without samples).
func foldProfile(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("pprof: no cpu sample type")
	}
	sums := map[string]float64{}
	var total float64
	var frames []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				frames = append(frames, p.str(p.funcs[fn]))
			}
		}
		v := float64(s.values[vi])
		sums[classify(frames)] += v
		total += v
	}
	out := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		if total > 0 {
			out[l] = sums[l] / total
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// classify folds one sample's stack, innermost frame first, into a layer:
//  1. a GC worker, assist, write-barrier, sweeper or scavenger frame
//     anywhere on the stack is "gc";
//  2. else runtime.mallocgc on the stack is "alloc";
//  3. else a runtime leaf inside a coroutine switch (iter.Pull, which
//     sim.Proc runs on) is "coro";
//  4. else the innermost mproxy frame's package decides, so runtime
//     helpers such as memmove or duffcopy are charged to their caller;
//  5. else "runtime".
func classify(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "alloc"
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") {
			break
		}
		if strings.HasPrefix(f, "runtime.coro") {
			return "coro"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "mproxy/") {
			return layerOf(pkgOf(f))
		}
	}
	return "runtime"
}

// pkgOf returns the import path of a fully qualified function name such as
// "mproxy/internal/proxy.(*Scanner[...]).scan".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func layerOf(pkg string) string {
	if l, ok := layerOfPkg[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "mproxy/internal/apps/") || pkg == "mproxy/internal/apps" {
		return "apps"
	}
	return "other"
}

// profile holds the parts of a profile.proto message the fold reads.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []pprofSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strings     []string
}

type pprofSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the protobuf wire format of a (gzipped) profile,
// keeping sample types, samples, locations, functions and strings.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type
			var st [2]int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 && (num == 1 || num == 2) {
					st[num-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case num == 2 && wire == 2: // sample
			var s pprofSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
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
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 && num == 1 {
					id = v
				} else if wire == 0 && num == 2 {
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, in either the
// packed (wire type 2) or the unpacked (wire type 0) encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	if wire != 2 {
		return fmt.Errorf("pprof: repeated varint with wire type %d", wire)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling f with each field's
// number and wire type and either its scalar value (varint and fixed
// types) or its bytes (length-delimited).
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length-delimited field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
