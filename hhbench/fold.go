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

// modules are the layers a CPU profile folds into: the simulator's
// packages, the telemetry planes, the Go runtime (GC and every frame
// outside the repository) and everything else in the repository.
var modules = []string{
	"simtime", "phys", "buddy", "ept", "dram", "kvm", "guest", "attack",
	"virtio", "viommu", "hostload", "sched",
	"trace", "metrics", "inspect", "forensics", "ledger", "profile", "runartifact",
	"runtime", "other",
}

// repoPrefix is the import-path prefix of every repository package.
const repoPrefix = "hyperhammer"

// moduleOf names the layer a stack belongs to: the package of its
// innermost repository frame. frames lists function names leaf first,
// as pprof writes them ("hyperhammer/internal/kvm.(*VM).FillPagesGPA").
// A stack without a repository frame is runtime work: GC, the
// scheduler, or library code the repository did not call.
func moduleOf(frames []string) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return "other" // the benchmark program itself
		}
		if !strings.HasPrefix(fn, repoPrefix+".") && !strings.HasPrefix(fn, repoPrefix+"/") {
			continue
		}
		pkg := strings.TrimPrefix(fn, repoPrefix)
		pkg = strings.TrimPrefix(pkg, "/internal/")
		// The package path ends at the first dot after the last slash.
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		if i := strings.Index(pkg, "."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range modules[:len(modules)-2] {
			if pkg == m {
				return m
			}
		}
		return "other"
	}
	return "runtime"
}

// cpuFold is a CPU profile folded by module.
type cpuFold struct {
	Samples int64
	TotalNS int64
	NS      map[string]int64
}

// foldProfile decodes a gzipped pprof CPU profile (as runtime/pprof
// writes it) and sums each sample's CPU nanoseconds into its module.
func foldProfile(gz []byte) (cpuFold, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return cpuFold{}, err
	}
	// The CPU profile's sample types are (samples, count) and
	// (cpu, nanoseconds).
	countIdx, nsIdx := -1, -1
	for i, t := range p.sampleTypes {
		switch p.strings[t[1]] {
		case "count":
			countIdx = i
		case "nanoseconds":
			nsIdx = i
		}
	}
	if countIdx < 0 || nsIdx < 0 {
		return cpuFold{}, errors.New("profile lacks the count and nanoseconds sample types")
	}
	fold := cpuFold{NS: map[string]int64{}}
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			// A location's lines list inlined calls innermost first.
			for _, fid := range p.locations[loc] {
				frames = append(frames, p.strings[p.functions[fid]])
			}
		}
		if nsIdx >= len(s.values) || countIdx >= len(s.values) {
			return cpuFold{}, errors.New("profile sample lacks values")
		}
		ns := s.values[nsIdx]
		fold.NS[moduleOf(frames)] += ns
		fold.TotalNS += ns
		fold.Samples += s.values[countIdx]
	}
	return fold, nil
}

// profileData is the part of profile.proto the fold needs.
type profileData struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto
// (github.com/google/pprof/proto/profile.proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var t [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fValueTypeType:
					t[0] = int64(v)
				case fValueTypeUnit:
					t[1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case fProfileSample:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, b)
				case fSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
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
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, t := range p.sampleTypes {
		if int(t[0]) >= len(p.strings) || int(t[1]) >= len(p.strings) {
			return nil, errors.New("profile: sample type names a missing string")
		}
	}
	for id, name := range p.functions {
		if int(name) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function %d names a missing string", id)
		}
	}
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				if _, ok := p.functions[fid]; !ok {
					return nil, fmt.Errorf("profile: location %d names missing function %d", loc, fid)
				}
			}
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, passing varint
// fields as v and length-delimited fields as b. Fixed-width fields are
// skipped; profile.proto uses none that the fold needs.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or
// not (v set).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
