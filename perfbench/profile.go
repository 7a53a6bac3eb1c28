package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuModules are the cpu.<module> shares a traced run reports; every
// profile sample lands in exactly one.
var cpuModules = []string{
	"storage", "server", "core", "cc", "simnet", "tcpnet", "wire", "wal", "txn",
	"cluster", "depgraph", "stats", "chiller", "runtime.gc", "runtime.other",
	"generator", "other",
}

const modulePath = "github.com/chillerdb/chiller"

// moduleOf names the module a function belongs to, "" for code outside
// the repository (runtime, standard library).
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, modulePath+"/perfbench"):
		return "generator"
	case strings.HasPrefix(fn, modulePath+"/internal/"):
		pkg := strings.TrimPrefix(fn, modulePath+"/internal/")
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "storage", "server", "core", "cc", "simnet", "tcpnet", "wire", "wal", "txn", "cluster", "depgraph", "stats":
			return pkg
		case "transport":
			// transport/simfab is the simulated fabric's constructor.
			if strings.Contains(fn, "/simfab") {
				return "simnet"
			}
		}
		return "other"
	case strings.HasPrefix(fn, modulePath+"."):
		return "chiller"
	}
	return ""
}

// isGC reports whether a frame is Go garbage-collector work.
func isGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc",
		"runtime.gcDrain", "runtime.markroot", "runtime.scanobject", "runtime.gcStart":
		return true
	}
	return false
}

// cpuShares attributes each CPU-profile sample to one module: GC work
// to runtime.gc, otherwise to the repository module nearest the leaf
// (so standard-library and runtime helpers count for their caller), and
// stacks without repository code to runtime.other.
func cpuShares(path string) (map[string]float64, error) {
	p, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[0]
		mod := ""
		gc := false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if isGC(fn) {
					gc = true
				}
				if mod == "" {
					mod = moduleOf(fn)
				}
			}
		}
		switch {
		case gc:
			mod = "runtime.gc"
		case mod == "":
			mod = "runtime.other"
		}
		counts[mod] += v
		total += v
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			out["cpu."+m] = float64(counts[m]) / float64(total)
		} else {
			out["cpu."+m] = 0
		}
	}
	return out, nil
}

// profile is the part of a pprof profile the shares need: samples and
// each location's function names, innermost inlined frame first.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// readProfile decodes the gzipped protobuf runtime/pprof writes (see
// github.com/google/pprof/proto/profile.proto).
func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{} // function id -> name string index
		locLine = map[uint64][]uint64{}
		p       = &profile{locFuncs: map[uint64][]string{}}
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locLine {
		for _, f := range fns {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[loc] = append(p.locFuncs[loc], strs[i])
			}
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either packed
// (length-delimited) or as a single varint.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
