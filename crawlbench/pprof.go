package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// modules are the repo packages time and memory are charged to. Other
// repo packages (small helpers such as header, origin, psl, lru) are
// not buckets of their own: their cost goes to the module that called
// them.
var modules = []string{
	"crawler", "browser", "diskcache", "html", "script", "webapi",
	"static", "policy", "store", "bundle", "analysis", "synthweb",
}

// buckets lists every CPU bucket: the modules, then the four buckets
// for samples with no module frame.
var buckets = append(append([]string(nil), modules...), "net_client", "net_server", "gc", "other")

const repoPrefix = "permodyssey/internal/"

// moduleOf returns the module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return ""
}

// bucketOf charges one stack, innermost frame first, to the innermost
// module frame; a stack with none is classified by its root function.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	root := ""
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != "runtime.goexit" {
			root = stack[i]
			break
		}
	}
	switch {
	case strings.HasPrefix(root, "net/http.(*persistConn)"), strings.HasPrefix(root, "net/http.(*Transport)"):
		return "net_client"
	case strings.HasPrefix(root, "net/http.(*conn)"), strings.HasPrefix(root, "net/http.(*Server)"):
		return "net_server"
	case root == "runtime._GC", root == "runtime.bgsweep", root == "runtime.bgscavenge",
		strings.HasPrefix(root, "runtime.gc"):
		return "gc"
	}
	return "other"
}

// hasFunc reports whether any frame of stack starts with prefix.
func hasFunc(stack []string, prefix string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// sample is one decoded profile sample: its stack, innermost frame
// first, and its values in sample-type order.
type sample struct {
	stack  []string
	values []int64
}

// profile is the part of a pprof profile the runner reads.
type profile struct {
	types   []string // sample type names, e.g. "samples", "cpu"
	samples []sample
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.types {
		if t == name {
			return i
		}
	}
	return -1
}

// cpuProfile is a CPU profile charged to buckets: seconds per bucket,
// plus the crypto/sha256 overlay.
type cpuProfile struct {
	seconds map[string]float64
	sha256  float64
	total   float64
}

// bucketCPU charges every sample's CPU time to its bucket.
func bucketCPU(p *profile) (cpuProfile, error) {
	vi := p.valueIndex("cpu")
	if vi < 0 {
		return cpuProfile{}, errors.New("profile has no cpu sample type")
	}
	out := cpuProfile{seconds: map[string]float64{}}
	for _, s := range p.samples {
		sec := float64(s.values[vi]) / 1e9
		out.seconds[bucketOf(s.stack)] += sec
		out.total += sec
		if hasFunc(s.stack, "crypto/sha256.") {
			out.sha256 += sec
		}
	}
	return out, nil
}

// heapByBucket charges in-use heap bytes of the runtime's memory
// profile to buckets by allocating stack. Call it right after a GC:
// the profile then reflects the heap as of that collection. Records
// are sampled, so each is scaled up by its sampling probability the
// way runtime/pprof scales a heap profile.
func heapByBucket() map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, false)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, false); ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]float64{}
	for _, r := range recs {
		out[bucketOf(symbolize(r.Stack()))] += scaleHeap(r.InUseObjects(), r.InUseBytes(), runtime.MemProfileRate)
	}
	return out
}

// scaleHeap estimates the true in-use bytes behind a sampled record of
// count objects and size bytes, as runtime/pprof's scaleHeapSample
// does: an object of the record's average in-use size is sampled with
// probability 1 - exp(-avg/rate).
func scaleHeap(count, size int64, rate int) float64 {
	if count == 0 || size == 0 {
		return 0
	}
	if rate <= 1 {
		return float64(size)
	}
	avg := float64(size) / float64(count)
	return float64(size) / (1 - math.Exp(-avg/float64(rate)))
}

// symbolize turns program counters into function names, expanding
// inlined frames, innermost first.
func symbolize(pcs []uintptr) []string {
	frames := runtime.CallersFrames(pcs)
	var out []string
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// parseProfile decodes a gzipped pprof protocol buffer (the format
// runtime/pprof writes) far enough to recover sample types, values and
// symbolized stacks. It understands both packed and unpacked repeated
// fields.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		rawSamps  []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamps = append(rawSamps, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, rs := range rawSamps {
		if len(rs.values) != len(p.types) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(rs.values), len(p.types))
		}
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for each field of one protobuf message: the
// field number, wire type, and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func walkFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated varint field occurrence: a single
// value (wire type 0) or a packed run (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
