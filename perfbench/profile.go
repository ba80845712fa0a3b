package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is folded with the standard library alone: gunzip, then
// a hand-written decoder for the few protobuf fields of the pprof
// Profile message the fold needs.
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (samples, cpu ns)
//	Location: 1 id, 4 line (innermost inlined frame first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string table index)

// pbuf reads protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errTruncated
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = errTruncated
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// next reads a field key; it returns false at the end of the message or
// on error.
func (p *pbuf) next() (field int, wire int, ok bool) {
	if p.err != nil || len(p.b) == 0 {
		return 0, 0, false
	}
	k := p.varint()
	return int(k >> 3), int(k & 7), p.err == nil
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.fixed(8)
	case 2:
		p.bytes()
	case 5:
		p.fixed(4)
	default:
		p.err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
}

func (p *pbuf) fixed(n int) {
	if len(p.b) < n {
		p.err = errTruncated
		return
	}
	p.b = p.b[n:]
}

// uints reads a repeated integer field in either its packed or its
// unpacked encoding.
func (p *pbuf) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, p.varint())
	}
	if wire != 2 {
		p.skip(wire)
		return dst
	}
	inner := pbuf{b: p.bytes()}
	for len(inner.b) > 0 && inner.err == nil {
		dst = append(dst, inner.varint())
	}
	if inner.err != nil {
		p.err = inner.err
	}
	return dst
}

// foldProfile parses a gzipped pprof CPU profile and sums its sample
// counts by the package of each sample's innermost frame. It returns the
// per-package counts and their total.
func foldProfile(data []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sample struct{ leaf, count uint64 }
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id → innermost function id
		funcName  = map[uint64]uint64{} // function id → string index
		strs      []string
		top       = pbuf{b: raw}
		locs, val []uint64
	)
	for {
		field, wire, ok := top.next()
		if !ok {
			break
		}
		switch {
		case field == 2 && wire == 2:
			m := pbuf{b: top.bytes()}
			locs, val = locs[:0], val[:0]
			for f, w, ok := m.next(); ok; f, w, ok = m.next() {
				switch f {
				case 1:
					locs = m.uints(w, locs)
				case 2:
					val = m.uints(w, val)
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, 0, m.err
			}
			if len(locs) > 0 && len(val) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: val[0]})
			}
		case field == 4 && wire == 2:
			m := pbuf{b: top.bytes()}
			var id, fn uint64
			haveLine := false
			for f, w, ok := m.next(); ok; f, w, ok = m.next() {
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2 && !haveLine:
					line := pbuf{b: m.bytes()}
					for lf, lw, ok := line.next(); ok; lf, lw, ok = line.next() {
						if lf == 1 && lw == 0 {
							fn = line.varint()
						} else {
							line.skip(lw)
						}
					}
					if line.err != nil {
						return nil, 0, line.err
					}
					haveLine = true
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, 0, m.err
			}
			locFunc[id] = fn
		case field == 5 && wire == 2:
			m := pbuf{b: top.bytes()}
			var id, name uint64
			for f, w, ok := m.next(); ok; f, w, ok = m.next() {
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, 0, m.err
			}
			funcName[id] = name
		case field == 6 && wire == 2:
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return nil, 0, top.err
	}

	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		pkg := ""
		if fn, ok := locFunc[s.leaf]; ok {
			if ix, ok := funcName[fn]; ok && ix < uint64(len(strs)) {
				pkg = packageOf(strs[ix])
			}
		}
		counts[pkg] += int64(s.count)
		total += int64(s.count)
	}
	return counts, total, nil
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/sim.(*Engine).Run" or "net/http.(*conn).serve". Type
// parameters and receivers may themselves contain dots and slashes, so
// the name is cut at the first '(' or '[' before looking for the last
// path separator.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// simLayers are the repository packages a CPU sample is attributed to
// by name; the rest of the module counts as "other".
var simLayers = []string{
	"sim", "mpisim", "netmodel", "noise", "memband", "wave", "trace", "workload",
	"genload", "topology", "sweep", "spec", "serve", "journal", "rng",
}

// shareLayers lists every layer a CPU share is reported for.
var shareLayers = append(append([]string(nil), simLayers...), "stdlib_http_json", "runtime", "other")

// layerOf maps an import path to its reporting layer. The standard
// library's serialization and transport stack (HTTP, JSON, sockets,
// syscalls) is one layer; the Go runtime, including its internal
// packages, is another.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range simLayers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	first, _, _ := strings.Cut(pkg, "/")
	switch {
	case pkg == "runtime" || first == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case first == "net" || first == "encoding" || first == "crypto" || first == "mime" ||
		pkg == "bufio" || pkg == "syscall" || pkg == "internal/poll" || pkg == "os" ||
		pkg == "io" || pkg == "fmt" || pkg == "strconv" || pkg == "reflect":
		return "stdlib_http_json"
	}
	return "other"
}

// layerShares folds per-package sample counts into per-layer shares of
// the total; every layer in shareLayers is present.
func layerShares(counts map[string]int64, total int64) map[string]float64 {
	out := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		out[l] = 0
	}
	if total == 0 {
		return out
	}
	for pkg, n := range counts {
		out[layerOf(pkg)] += float64(n) / float64(total)
	}
	return out
}
