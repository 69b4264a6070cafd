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

// hostBuckets are the host CPU shares the traced run reports, by the
// package that burned the samples. Samples in the Go runtime split into
// gc (any garbage-collector frame on the stack) and goruntime (the rest:
// scheduler, allocator, channel hand-offs).
var hostBuckets = []string{"sim", "rma", "pgas", "memblock", "region", "uth", "core", "app", "rand", "goruntime", "gc", "other"}

// pkgBucket maps a Go import path to its host bucket, or "" for a
// package that is not a layer of its own (the sample is then charged to
// the nearest caller that is).
func pkgBucket(pkg string) string {
	switch {
	case pkg == "ityr", pkg == "ityr/internal/core":
		return "core"
	case pkg == "ityr/internal/netmodel":
		return "rma"
	case strings.HasPrefix(pkg, "ityr/internal/apps/"):
		return "app"
	case strings.HasPrefix(pkg, "ityr/internal/"):
		switch name := strings.TrimPrefix(pkg, "ityr/internal/"); name {
		case "sim", "rma", "pgas", "memblock", "region", "uth":
			return name
		}
		return "other"
	case pkg == "math/rand", pkg == "math/rand/v2":
		return "rand"
	case pkg == "runtime":
		return "goruntime"
	}
	return ""
}

// funcPackage returns the import path of a symbol name as the Go
// runtime spells it, e.g. "ityr/internal/sim.(*Engine).Run".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isGCFrame reports whether a runtime function belongs to the garbage
// collector (marking, sweeping, scavenging or a mutator's GC assist).
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.wbBufFlush"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sampleBucket attributes one stack (leaf first) to a host bucket.
func sampleBucket(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if b := pkgBucket(funcPackage(fn)); b != "" {
			return b
		}
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and adds its sample
// counts per host bucket into into; it returns the samples it read.
func foldProfile(data []byte, into map[string]int64) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	var total int64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if name := p.funcName[fid]; name < uint64(len(p.strings)) {
					stack = append(stack, p.strings[name])
				}
			}
		}
		into[sampleBucket(stack)] += s.count
		total += s.count
	}
	return total, nil
}

// pprofData is the part of a pprof profile.proto the folding needs.
type pprofData struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf (innermost inline) first
	funcName map[uint64]uint64   // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: the sample count
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			var vals []uint64
			err := eachField(msg, func(num int, v uint64, m []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, m)
				case fSampleValue:
					return appendVarints(&vals, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, m []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(m, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case fProfileFunction:
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as msg.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
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
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrives either as
// one unpacked value v (msg nil) or as a packed run in msg.
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
