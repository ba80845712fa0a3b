package cluster

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseMachine checks the machine spec parser over arbitrary input:
// ParseMachine must never panic, every accepted machine must pass
// Validate, and — since a modified or custom machine is renamed to its
// own spec string precisely so reports are self-describing — the Name
// of any accepted machine is itself a spec that re-parses to an equal
// machine. A name= option breaks that on purpose (the caller chose an
// arbitrary label), so those specs are exempt from the round trip.
func FuzzParseMachine(f *testing.F) {
	for _, s := range []string{
		"emmy", "meggie", "simulated", "Emmy",
		"meggie:noise=0",
		"emmy:lat=5us",
		"emmy:lat=5us:name=slow-emmy",
		"custom:lat=1.2us:bw=6.8GB/s:eager=32768:cores=10x2",
		"custom:noise=periodic/500us@10ms:o=400ns",
		"custom:noise=exp/0.5+periodic/500us@10ms",
		"meggie:bw=100GB/s:membw=40GB/s:intralat=0.3us:intrabw=10GB/s",
		"emmy:osend=300ns:orecv=500ns",
		"", "unknown", "emmy:lat=", "emmy:lat=-1us", "custom:cores=0x2",
		"emmy:bw=0", "emmy:noise=exp", "emmy:frobnicate=1",
		"custom:bw=NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMachine(s)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseMachine(%q) accepted an invalid machine: %v", s, err)
		}
		for _, part := range strings.Split(s, ":")[1:] {
			if strings.HasPrefix(strings.ToLower(strings.TrimSpace(part)), "name=") {
				return // arbitrary label, round trip not expected
			}
		}
		back, err := ParseMachine(m.Name)
		if err != nil {
			t.Fatalf("ParseMachine(%q) accepted but its Name %q does not re-parse: %v", s, m.Name, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("ParseMachine(%q) = %+v, but re-parsing its Name %q = %+v", s, m, m.Name, back)
		}
	})
}
