package netmodel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseHockney(t *testing.T) {
	m, err := Parse("hockney:lat=1.7us:bw=6.8GB/s:eager=32768")
	if err != nil {
		t.Fatal(err)
	}
	h, ok := m.(*Hockney)
	if !ok {
		t.Fatalf("Parse returned %T, want *Hockney", m)
	}
	if h.Latency != sim.Time(1.7e-6) || h.Bandwidth != 6.8e9 || h.EagerLimit != 32768 {
		t.Fatalf("unexpected model %+v", h)
	}
}

func TestParseHockneyDefaults(t *testing.T) {
	m, err := Parse("hockney:bw=3e9")
	if err != nil {
		t.Fatal(err)
	}
	h := m.(*Hockney)
	if h.Latency != 0 || h.EagerLimit != DefaultEagerLimit {
		t.Fatalf("unexpected defaults %+v", h)
	}
}

func TestParseLogGOPS(t *testing.T) {
	m, err := Parse("loggops:lat=5us:o=400ns/600ns:bw=10GB/s:eager=65536")
	if err != nil {
		t.Fatal(err)
	}
	l, ok := m.(*LogGOPS)
	if !ok {
		t.Fatalf("Parse returned %T, want *LogGOPS", m)
	}
	if l.L != sim.Time(5e-6) || l.OSend != sim.Time(400e-9) || l.ORecv != sim.Time(600e-9) {
		t.Fatalf("unexpected model %+v", l)
	}
	if l.G != sim.Time(1/10e9) || l.EagerLimit != 65536 {
		t.Fatalf("unexpected model %+v", l)
	}
}

func TestParseLogGOPSSharedOverheadAndInfiniteBandwidth(t *testing.T) {
	m, err := Parse("loggops:o=250ns:bw=inf")
	if err != nil {
		t.Fatal(err)
	}
	l := m.(*LogGOPS)
	if l.OSend != sim.Time(250e-9) || l.ORecv != sim.Time(250e-9) || l.G != 0 {
		t.Fatalf("unexpected model %+v", l)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"warp:bw=1GB/s",            // unknown kind
		"hier(h | h | h)",          // hierarchical has no flat spelling
		"hockney",                  // missing bw
		"hockney:lat=1us",          // missing bw
		"hockney:bw=0",             // non-positive bandwidth
		"hockney:bw=inf",           // inf only meaningful for loggops
		"hockney:bw=1GB/s:o=1us",   // o= only meaningful for loggops
		"hockney:bw=1GB/s:lat=-1s", // negative latency
		"hockney:bw=1GB/s:warp=1",  // unknown option
		"hockney:bw=1GB/s:lat",     // bare option
		"loggops:bw=1GB/s:o=1us/",  // empty recv side
		"hockney:bw=NaN",           // not a number
		"hockney:bw=+Inf",          // infinite outside the loggops bw=inf spelling
		"hockney:bw=1GB/s:eager=NaN",
		"loggops:bw=NaNGB/s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

// TestParseStringRoundTrip: the String() of a parsed model re-parses to
// a reflect.DeepEqual value, and the rendering is a fixed point. (For
// arbitrary bandwidths FormatRate's 4-digit mantissa can round on the
// first pass; these specs are exactly representable, so one pass is
// exact.)
func TestParseStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"hockney:lat=1.7us:bw=6.8GB/s:eager=32768",
		"hockney:bw=3e9",
		"loggops:lat=5us:o=400ns/600ns:bw=10GB/s:eager=65536",
		"loggops:o=250ns:bw=inf",
	} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := m.(interface{ String() string }).String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("String() %q of %q does not re-parse: %v", s, spec, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("round trip of %q not value-exact: %#v vs %#v", spec, m, back)
		}
		if got := back.(interface{ String() string }).String(); got != s {
			t.Errorf("String not a fixed point for %q: %q then %q", spec, s, got)
		}
		if !strings.HasPrefix(s, strings.SplitN(spec, ":", 2)[0]+":") {
			t.Errorf("String() = %q for %q", s, spec)
		}
	}
}
