package netmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// DefaultEagerLimit is the eager/rendezvous switchover Parse assumes
// when a model spec has no eager= option (128 KiB, the common MPI
// default).
const DefaultEagerLimit = 131072

// Parse builds a cost model from the colon-separated flag syntax the
// String methods render, parallel to topology.Parse and
// cluster.ParseMachine:
//
//	hockney:bw=<rate>[:lat=<dur>][:eager=<bytes>]
//	loggops:bw=<rate>|bw=inf[:lat=<dur>][:o=<dur>[/<dur>]][:eager=<bytes>]
//
// Options (any order after the kind):
//
//	lat=<dur>      per-message wire latency ("lat=1.2us"); default 0s
//	bw=<rate>      asymptotic bandwidth ("bw=6.8GB/s", "bw=3e9");
//	               required for hockney; "bw=inf" (loggops only) means
//	               zero per-byte gap
//	o=<dur>        per-message CPU overhead, both sides (loggops only);
//	               "o=<send>/<recv>" sets the sides separately
//	eager=<bytes>  eager limit ("eager=32768", "eager=128KB");
//	               default DefaultEagerLimit
//
// Hierarchical models need a topology Locator and cannot be spelled as
// a flat string; construct them with NewHierarchical.
func Parse(s string) (Model, error) {
	trimmed := strings.TrimSpace(s)
	parts := strings.Split(trimmed, ":")
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	switch kind {
	case "":
		return nil, fmt.Errorf("netmodel: empty model spec")
	case "hockney", "loggops":
	case "hier":
		return nil, fmt.Errorf("netmodel: spec %q: hierarchical models need a topology locator; build them with NewHierarchical", s)
	default:
		return nil, fmt.Errorf("netmodel: spec %q: unknown kind %q (want hockney or loggops)", s, kind)
	}

	var (
		lat, oSend, oRecv sim.Time
		bw                float64
		bwInf             bool
		haveBW            bool
		eager             = DefaultEagerLimit
		err               error
	)
	for _, opt := range parts[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("netmodel: spec %q: bad option %q (want key=value)", s, opt)
		}
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "lat":
			lat, err = ParseLatency(v, "lat")
		case "bw":
			haveBW = true
			if strings.EqualFold(strings.TrimSpace(v), "inf") {
				if kind != "loggops" {
					err = fmt.Errorf("bad bw %q (infinite bandwidth is only meaningful for loggops)", v)
				} else {
					bwInf = true
				}
				break
			}
			bw, err = ParseRate(v, "bw")
		case "o":
			send, recv, cut := strings.Cut(v, "/")
			if kind != "loggops" {
				err = fmt.Errorf("option o= is only meaningful for loggops")
				break
			}
			if oSend, err = ParseLatency(send, "o"); err != nil {
				break
			}
			if cut {
				oRecv, err = ParseLatency(recv, "o")
			} else {
				oRecv = oSend
			}
		case "eager":
			var limit float64
			if limit, err = ParseSize(v, "eager"); err == nil {
				eager = int(limit)
			}
		default:
			err = fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("netmodel: spec %q: %w", s, err)
		}
	}
	if !haveBW {
		return nil, fmt.Errorf("netmodel: spec %q: missing required bw= option", s)
	}

	if kind == "hockney" {
		return NewHockney(lat, bw, eager)
	}
	var g sim.Time
	if !bwInf {
		g = sim.Time(1 / bw)
	}
	return NewLogGOPS(lat, oSend, oRecv, g, 0, eager)
}

// ParseLatency reads a non-negative duration ("1.2us", "0s"); key names
// the field in error messages. Shared with cluster.ParseMachine.
func ParseLatency(v, key string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad %s %q (want a non-negative duration like 1.2us)", key, v)
	}
	return sim.Time(d.Seconds()), nil
}

// ParseRate reads a positive byte rate: a plain float in bytes per
// second, or a decimal-unit size with an optional /s ("6.8GB/s"). This
// is the inverse of FormatRate.
func ParseRate(v, key string) (float64, error) {
	return ParseSize(strings.TrimSuffix(strings.TrimSpace(v), "/s"), key)
}

// ParseSize reads a positive byte count with optional decimal unit
// suffix ("32768", "128KB", "1.2e9", "6.8GB").
func ParseSize(v, key string) (float64, error) {
	s := strings.TrimSpace(v)
	mult := 1.0
	upper := strings.ToUpper(s)
	for _, u := range []struct {
		suffix string
		mult   float64
	}{{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12}, {"B", 1}} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			s = strings.TrimSpace(s[:len(s)-len(u.suffix)])
			break
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	f *= mult
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad %s %q (want a positive size like 32768, 128KB or 6.8GB/s)", key, v)
	}
	return f, nil
}
