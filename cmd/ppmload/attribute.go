package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers are the repo's modules. A CPU sample or an allocation is
// charged to the innermost frame that lies inside a listed layer, so
// the malloc, GC assist and fmt.Sprintf a layer causes are its own
// cost, not "runtime"'s. Flat self-time would be useless here: a
// profile of control is 60 % runtime and 13 % fmt.
var (
	cpuLayers = []string{
		"sim", "simnet", "wire", "kernel", "daemon", "auth", "lpm", "recovery", "detect",
		"history", "journal", "metrics", "trace", "status", "profile", "tools", "ppm", "driver", "gc",
	}
	allocLayers = []string{
		"lpm", "wire", "simnet", "sim", "kernel", "journal", "metrics", "trace", "status",
		"recovery", "ppm", "driver",
	}
)

// layerOf maps a Go function name to its layer, or "" for a frame
// outside the repo or in a helper package that is charged to its
// caller (calib, detord, config, ...).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "ppm/internal/"):
		pkg := fn[len("ppm/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "proc" {
			return "kernel"
		}
		return pkg
	case strings.HasPrefix(fn, "ppm/cmd/ppmload."), strings.HasPrefix(fn, "main."):
		return "driver"
	case strings.HasPrefix(fn, "ppm."):
		return "ppm"
	}
	return ""
}

// charge returns the layer a stack is charged to: the layer of the
// innermost frame (frames run leaf first) that is in allowed, else
// fallback.
func charge(frames []string, allowed map[string]bool, fallback string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" && allowed[l] {
			return l
		}
	}
	return fallback
}

func setOf(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// cpuShares decodes a runtime/pprof CPU profile and returns each
// layer's share of the samples, in percent. Samples with no frame in
// any layer (background GC workers, the idle scheduler, the profiler
// itself) are "gc".
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	allowed := setOf(cpuLayers)
	weight := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		weight[charge(s.frames, allowed, "gc")] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuLayers))
	if total == 0 {
		return shares, 0, errors.New("cpu profile holds no samples")
	}
	for _, l := range cpuLayers {
		shares[l] = 100 * float64(weight[l]) / float64(total)
	}
	return shares, total, nil
}

// allocProfile reads the runtime's allocation profile: the sampled
// totals of every call stack so far. Read it twice and hand both to
// allocEstimates to attribute an interval.
func allocProfile() []runtime.MemProfileRecord {
	runtime.GC() // the profile is complete up to the last finished cycle
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// allocEstimate is one call stack's estimated number of objects
// allocated over an interval, with its frames leaf first.
type allocEstimate struct {
	frames  []string
	objects float64
}

// allocEstimates turns two allocProfile readings into the estimated
// object count of every stack that allocated in between. The runtime
// samples an allocation of size s with probability 1-exp(-s/rate), so
// raw sample counts are nearly a share of bytes; dividing by that
// probability gives objects (the correction pprof applies to heap
// profiles). The runtime keeps one record per stack and object size.
func allocEstimates(before, after []runtime.MemProfileRecord, rate int) []allocEstimate {
	type bucket struct {
		stack [32]uintptr
		size  int64
	}
	base := make(map[bucket]int64, len(before))
	for i := range before {
		if n := before[i].AllocObjects; n > 0 {
			base[bucket{before[i].Stack0, before[i].AllocBytes / n}] = n
		}
	}
	var out []allocEstimate
	for i := range after {
		if after[i].AllocObjects <= 0 {
			continue
		}
		size := after[i].AllocBytes / after[i].AllocObjects
		objects := after[i].AllocObjects - base[bucket{after[i].Stack0, size}]
		if objects <= 0 {
			continue
		}
		est := allocEstimate{objects: float64(objects)}
		if rate > 1 {
			est.objects /= 1 - math.Exp(-float64(size)/float64(rate))
		}
		it := runtime.CallersFrames(after[i].Stack())
		for {
			f, more := it.Next()
			est.frames = append(est.frames, f.Function)
			if !more {
				break
			}
		}
		out = append(out, est)
	}
	return out
}

// allocShares charges every estimate to its layer and returns each
// layer's share of the objects allocated, in percent.
func allocShares(ests []allocEstimate) map[string]float64 {
	allowed := setOf(allocLayers)
	objects := make(map[string]float64)
	var total float64
	for _, e := range ests {
		objects[charge(e.frames, allowed, "")] += e.objects
		total += e.objects
	}
	shares := make(map[string]float64, len(allocLayers))
	for _, l := range allocLayers {
		if total > 0 {
			shares[l] = 100 * objects[l] / total
		}
	}
	return shares
}

// ---------------------------------------------------------------------
// A reader for the one profile.proto shape runtime/pprof writes. The
// tree is vendored and offline, so no profile package is available;
// the format needs five messages and three wire types.
// ---------------------------------------------------------------------

// stack is one profile sample: function names leaf first (inlined
// frames expanded) and the sample's last value (cpu nanoseconds).
type stack struct {
	frames []string
	value  int64
}

type protoBuf struct {
	b   []byte
	err error
}

func (p *protoBuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// field reads one field header and its payload: v for varints, data
// for length-delimited fields.
func (p *protoBuf) field() (num int, v uint64, data []byte) {
	key := p.varint()
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v = p.varint()
	case 1:
		p.skip(8)
	case 2:
		n := p.varint()
		if p.err == nil && n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
		}
		if p.err == nil {
			data = p.b[:n]
			p.b = p.b[n:]
		}
	case 5:
		p.skip(4)
	default:
		p.err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, v, data
}

func (p *protoBuf) skip(n int) {
	if len(p.b) < n {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// packed appends a repeated integer field's values: one varint when
// the field arrived unpacked, else every varint in data.
func packed(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locLines  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]uint64)   // function id -> string index
		strs      []string
	)
	p := protoBuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, data := p.field()
		switch num {
		case 2: // Sample
			var s sample
			q := protoBuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, v, d := q.field()
				switch n {
				case 1:
					s.locs, q.err = packed(s.locs, v, d)
				case 2:
					s.values, q.err = packed(s.values, v, d)
				}
			}
			if q.err != nil {
				return nil, q.err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := protoBuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, v, d := q.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{b: d}
					for len(l.b) > 0 && l.err == nil {
						if ln, lv, _ := l.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			if q.err != nil {
				return nil, q.err
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			q := protoBuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if q.err != nil {
				return nil, q.err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
