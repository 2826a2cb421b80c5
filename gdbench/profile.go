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

// pkgLayers are the repository packages whose profile self time is
// reported as <pkg>.cpu_s. Self time elsewhere goes to stdlib.cpu_s
// (standard library outside the runtime), runtime.gc_cpu_s (any sample
// with a garbage-collector frame on its stack), runtime.other_cpu_s (the
// rest of the runtime: allocation, maps, scheduling) or other.cpu_s
// (repository code outside these packages, this benchmark included).
var pkgLayers = []string{
	"sim", "mc", "ksm", "kernel", "hotplug", "core", "power", "workload", "vmtrace",
	"addr", "dram", "exp", "sweep", "server", "store", "cluster", "obs", "metrics", "report",
}

const modulePrefix = "greendimm/internal/"

// gcRoots are runtime functions that only the garbage collector's own
// work runs under: a sample with one of them on its stack is GC time.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcDrain":           true,
	"runtime.markroot":          true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// profiler collects one CPU profile in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns self seconds by layer metric name.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	prof, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return prof.selfByLayer(), nil
}

// layerOf names the metric a function's self time belongs to.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, modulePrefix) {
		pkg := fn[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range pkgLayers {
			if l == pkg {
				return l + ".cpu_s"
			}
		}
		return "other.cpu_s"
	}
	if strings.HasPrefix(fn, "greendimm/") || strings.HasPrefix(fn, "main.") {
		return "other.cpu_s"
	}
	path := fn
	if i := strings.LastIndex(path, "/"); i >= 0 {
		j := strings.Index(path[i:], ".")
		if j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/internal/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime.other_cpu_s"
	}
	return "stdlib.cpu_s"
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64
	value []int64
}

// selfByLayer charges each sample's CPU time (its last value, in
// nanoseconds) to the layer of its leaf function, or to the garbage
// collector when a GC root is on its stack.
func (p *profile) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if len(s.value) == 0 || len(s.locs) == 0 {
			continue
		}
		secs := float64(s.value[len(s.value)-1]) / 1e9
		layer := ""
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				if gcRoots[p.funcName(fid)] {
					layer = "runtime.gc_cpu_s"
				}
			}
		}
		if layer == "" {
			leaf := ""
			if fids := p.locations[s.locs[0]]; len(fids) > 0 {
				leaf = p.funcName(fids[0])
			}
			layer = layerOf(leaf)
		}
		out[layer] += secs
	}
	return out
}

func (p *profile) funcName(id uint64) string {
	i, ok := p.functions[id]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses a gzipped pprof protobuf: only samples,
// locations (with their inline lines), functions and the string table.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.value = append(s.value, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
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
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints reads a repeated varint field in either its packed
// (length-delimited) or unpacked form.
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

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
