package cluster

import (
	"reflect"
	"testing"

	"repro/internal/noise"
	"repro/internal/sim"
)

func TestParseMachineReferences(t *testing.T) {
	for _, c := range []struct {
		spec string
		want Machine
	}{
		{"emmy", Emmy()},
		{"meggie", Meggie()},
		{"simulated", Simulated()},
		{"emmy-infiniband", Emmy()},
	} {
		got, err := ParseMachine(c.spec)
		if err != nil {
			t.Fatalf("ParseMachine(%q): %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseMachine(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseMachineModifiedReference(t *testing.T) {
	m, err := ParseMachine("meggie:noise=0")
	if err != nil {
		t.Fatal(err)
	}
	if m.Noise != nil {
		t.Errorf("noise=0 left noise %v", m.Noise)
	}
	if m.Name != "meggie:noise=0" {
		t.Errorf("modified machine name = %q, want the spec string", m.Name)
	}
	// Everything else stays Meggie.
	ref := Meggie()
	ref.Noise = nil
	ref.Name = m.Name
	if !reflect.DeepEqual(m, ref) {
		t.Errorf("meggie:noise=0 = %+v, want Meggie sans noise", m)
	}

	m, err = ParseMachine("emmy:lat=5us:name=slow-emmy")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "slow-emmy" {
		t.Errorf("name option ignored, got %q", m.Name)
	}
	if m.NetLatency != sim.Time(5e-6) {
		t.Errorf("lat=5us = %g", float64(m.NetLatency))
	}
}

func TestParseMachineCustom(t *testing.T) {
	m, err := ParseMachine("custom:lat=1.2us:bw=6.8GB/s:eager=32768:cores=10x2")
	if err != nil {
		t.Fatal(err)
	}
	if m.NetLatency != sim.Time(1.2e-6) {
		t.Errorf("lat = %g, want 1.2us", float64(m.NetLatency))
	}
	if m.NetBandwidth != 6.8e9 {
		t.Errorf("bw = %g, want 6.8e9", m.NetBandwidth)
	}
	if m.EagerLimit != 32768 {
		t.Errorf("eager = %d", m.EagerLimit)
	}
	if m.CoresPerSocket != 10 || m.SocketsPerNode != 2 {
		t.Errorf("cores = %dx%d", m.CoresPerSocket, m.SocketsPerNode)
	}
	// Unset fields fall back to the custom baseline and validate.
	if m.MemBandwidth != 40e9 || m.IntraBandwidth == 0 {
		t.Errorf("baseline defaults missing: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("custom machine invalid: %v", err)
	}

	m, err = ParseMachine("custom:noise=periodic/500us@10ms:o=400ns")
	if err != nil {
		t.Fatal(err)
	}
	want := noise.PeriodicNoise{Duration: sim.Time(500e-9 * 1e3), Period: sim.Time(10e-3)}
	if !reflect.DeepEqual(m.Noise, noise.NoiseProfile(want)) {
		t.Errorf("noise = %#v, want %#v", m.Noise, want)
	}
	if m.SendOverhead != m.RecvOverhead || m.SendOverhead != sim.Time(400e-9) {
		t.Errorf("o=400ns: osend=%g orecv=%g", float64(m.SendOverhead), float64(m.RecvOverhead))
	}
}

func TestParseMachineCombinedNoise(t *testing.T) {
	m, err := ParseMachine("custom:noise=exp/0.5+periodic/500us@10ms")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := m.Noise.(noise.CombinedNoise)
	if !ok || len(c.Parts) != 2 {
		t.Fatalf("noise = %#v, want a 2-part combination", m.Noise)
	}
}

func TestParseMachineErrors(t *testing.T) {
	bad := []string{
		"",
		"cray",
		"custom:lat=-1us",
		"custom:bw=0",
		"custom:bw=NaN",
		"emmy:membw=Inf",
		"meggie:intrabw=NaN",
		"custom:cores=10",
		"custom:cores=0x2",
		"custom:eager=-5",
		"custom:oops=1",
		"custom:noise=waves",
		"emmy:lat",
	}
	for _, s := range bad {
		if _, err := ParseMachine(s); err == nil {
			t.Errorf("ParseMachine(%q) accepted", s)
		}
	}
}

func TestParseRateUnits(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"3e9", 3e9},
		{"6.8GB/s", 6.8e9},
		{"6.8GB", 6.8e9},
		{"250MB/s", 250e6},
		{"128KB", 128e3},
		{"512B", 512},
	} {
		got, err := parseRate(c.in, "bw")
		if err != nil {
			t.Errorf("parseRate(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseRate(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestFormatRateRoundTrips(t *testing.T) {
	for _, bw := range []float64{512, 128e3, 250e6, 6.8e9, 1.2e12} {
		s := FormatRate(bw)
		got, err := parseRate(s, "bw")
		if err != nil {
			t.Fatalf("FormatRate(%g) = %q does not parse: %v", bw, s, err)
		}
		if got != bw {
			t.Errorf("FormatRate(%g) = %q parses to %g", bw, s, got)
		}
	}
}

func TestNewFillsBaseline(t *testing.T) {
	m, err := New(Machine{NetLatency: sim.Micro(1), NetBandwidth: 5e9})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "custom" {
		t.Errorf("name = %q", m.Name)
	}
	if m.CoresPerSocket != 10 || m.SocketsPerNode != 2 || m.MemBandwidth != 40e9 ||
		m.IntraBandwidth != 6e9 || m.EagerLimit != 131072 {
		t.Errorf("baseline defaults missing: %+v", m)
	}
	if m.NetBandwidth != 5e9 || m.NetLatency != sim.Micro(1) {
		t.Errorf("explicit fields overwritten: %+v", m)
	}
	if _, err := New(Machine{NetLatency: -1}); err == nil {
		t.Error("invalid machine accepted")
	}
}
