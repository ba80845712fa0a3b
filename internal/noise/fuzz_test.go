package noise

import (
	"reflect"
	"testing"
)

// FuzzParseNoise checks the noise spec parser over arbitrary input:
// Parse must never panic, and any accepted profile must round-trip
// through its String(). One formatting pass may canonicalize (durations
// round to nanoseconds, derived bimodal weights drop), so the property
// is a fixed point: after the first re-parse, spec -> value -> spec is
// stable. Named mixture Profiles are the documented exception — their
// String is a display name, not a spec — but Parse never builds one.
func FuzzParseNoise(f *testing.F) {
	for _, s := range []string{
		"silent", "none", "off", "0",
		"exp:1.5",
		"exp:2.4us",
		"exp:2.4us:cap=30us",
		"bimodal",
		"bimodal:3us:cap=40us:spike=20us@500us:w=0.05",
		"bimodal:2.8us:wbulk=0.97",
		"periodic:500us@10ms",
		"exp:0.5+periodic:500us@10ms",
		"emmy", "meggie",
		"", "exp", "exp:-1", "periodic:10ms", "bimodal:w=0", "exp:1:cap=0s",
		"exp:1+", "silent:cap=1us",
		"exp:NaN", "exp:Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p1, err := Parse(s)
		if err != nil {
			return
		}
		spec := p1.String()
		p2, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) accepted but its String %q does not re-parse: %v", s, spec, err)
		}
		p3, err := Parse(p2.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", spec, p2.String(), err)
		}
		if !reflect.DeepEqual(p2, p3) {
			t.Fatalf("%q: round trip %#v != %#v (via %q)", s, p2, p3, p2.String())
		}
	})
}
