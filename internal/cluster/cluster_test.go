package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestReferenceMachinesValid(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if len(All()) != 3 {
		t.Errorf("All() returned %d machines, want 3", len(All()))
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	good := Emmy()
	mutations := []struct {
		name string
		mut  func(*Machine)
	}{
		{"empty name", func(m *Machine) { m.Name = "" }},
		{"zero cores", func(m *Machine) { m.CoresPerSocket = 0 }},
		{"zero sockets", func(m *Machine) { m.SocketsPerNode = 0 }},
		{"zero membw", func(m *Machine) { m.MemBandwidth = 0 }},
		{"zero netbw", func(m *Machine) { m.NetBandwidth = 0 }},
		{"zero intrabw", func(m *Machine) { m.IntraBandwidth = 0 }},
		{"NaN membw", func(m *Machine) { m.MemBandwidth = math.NaN() }},
		{"NaN netbw", func(m *Machine) { m.NetBandwidth = math.NaN() }},
		{"infinite intrabw", func(m *Machine) { m.IntraBandwidth = math.Inf(1) }},
		{"negative latency", func(m *Machine) { m.NetLatency = -1 }},
		{"negative overhead", func(m *Machine) { m.SendOverhead = -1 }},
		{"NaN latency", func(m *Machine) { m.NetLatency = sim.Time(math.NaN()) }},
		{"NaN intra latency", func(m *Machine) { m.IntraLatency = sim.Time(math.NaN()) }},
		{"infinite send overhead", func(m *Machine) { m.SendOverhead = sim.Time(math.Inf(1)) }},
		{"NaN recv overhead", func(m *Machine) { m.RecvOverhead = sim.Time(math.NaN()) }},
		{"negative eager limit", func(m *Machine) { m.EagerLimit = -1 }},
	}
	for _, c := range mutations {
		m := good
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestCoresPerNode(t *testing.T) {
	if got := Emmy().CoresPerNode(); got != 20 {
		t.Errorf("Emmy cores/node = %d, want 20", got)
	}
}

func TestPlacements(t *testing.T) {
	m := Emmy()
	p, err := m.Placement(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Socket(99) != 9 || p.Nodes() != 5 {
		t.Errorf("placement last socket/nodes = %d/%d, want 9/5", p.Socket(99), p.Nodes())
	}
	sp, err := m.SpreadPlacement(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Nodes() != 9 {
		t.Errorf("spread nodes = %d, want 9", sp.Nodes())
	}
	if _, err := m.Placement(0); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestNetModelHierarchy(t *testing.T) {
	m := Emmy()
	p, err := m.Placement(40)
	if err != nil {
		t.Fatal(err)
	}
	net, err := m.NetModel(p)
	if err != nil {
		t.Fatal(err)
	}
	// Same socket: intra latency; different node: inter latency.
	intra := net.Transfer(0, 1, 0)
	inter := net.Transfer(0, 25, 0)
	if intra != m.IntraLatency {
		t.Errorf("intra transfer latency = %v, want %v", intra, m.IntraLatency)
	}
	if inter != m.NetLatency {
		t.Errorf("inter transfer latency = %v, want %v", inter, m.NetLatency)
	}
	if inter <= intra {
		t.Error("inter-node should be slower than intra-node")
	}
	// Eager limit honored on both levels.
	if pr := net.ProtocolFor(0, 25, m.EagerLimit); pr != netmodel.Eager {
		t.Errorf("at eager limit: %v", pr)
	}
	if pr := net.ProtocolFor(0, 25, m.EagerLimit+1); pr != netmodel.Rendezvous {
		t.Errorf("above eager limit: %v", pr)
	}
}

func TestFlatNetModel(t *testing.T) {
	m := Simulated()
	net, err := m.FlatNetModel()
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Transfer(0, 1, 0); got != m.NetLatency {
		t.Errorf("flat latency = %v, want %v", got, m.NetLatency)
	}
	// 3 GB/s: 3 MB should take ~1 ms + latency.
	got := net.Transfer(0, 1, 3_000_000)
	want := m.NetLatency + sim.Milli(1)
	if diff := float64(got - want); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("3MB transfer = %v, want %v", got, want)
	}
	bad := m
	bad.NetBandwidth = 0
	if _, err := bad.FlatNetModel(); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestNetModelRejectsInvalidMachine(t *testing.T) {
	m := Emmy()
	m.CoresPerSocket = 0
	p, _ := Simulated().Placement(10)
	if _, err := m.NetModel(p); err == nil {
		t.Error("invalid machine accepted by NetModel")
	}
}

func TestNaturalNoise(t *testing.T) {
	inj, err := Emmy().NaturalNoise(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("Emmy natural noise is nil")
	}
	// Samples must be non-negative and small (fine-grained).
	for step := 0; step < 1000; step++ {
		x := inj(0, step)
		if x < 0 || x > sim.Milli(1) {
			t.Fatalf("Emmy noise sample %v out of expected range", x)
		}
	}
	silent, err := Simulated().NaturalNoise(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if silent != nil {
		t.Error("Simulated machine should have no natural noise")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"emmy", "meggie", "simulated"} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if word, _, _ := strings.Cut(m.Name, "-"); word != name {
			t.Errorf("ByName(%q) returned %q", name, m.Name)
		}
	}
	if m, err := ByName("emmy-infiniband"); err != nil || m.Name != "emmy-infiniband" {
		t.Errorf("full-name lookup failed: %v", err)
	}
	if _, err := ByName("cray"); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestMemBoundConfig pins the memory-bound policy, and that an override
// network is used as given: the machine's own is not built, so a
// machine whose network would not validate still runs under it.
func TestMemBoundConfig(t *testing.T) {
	m := Emmy()
	place, err := m.SpreadPlacement(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := m.MemBoundConfig(place, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Net == nil || cfg.SocketOf(5) != place.Socket(5) || !cfg.ChargeCommBandwidth ||
		cfg.SocketBandwidth != m.MemBandwidth || cfg.CoreBandwidth != m.MemBandwidth/6 {
		t.Errorf("memory-bound config = %+v", cfg)
	}

	flat, err := m.FlatNetModel()
	if err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.NetBandwidth = 0
	if _, err := bad.MemBoundConfig(place, nil); err == nil {
		t.Error("invalid machine network built")
	}
	cfg, err = bad.MemBoundConfig(place, flat)
	if err != nil {
		t.Fatalf("override network: %v", err)
	}
	if !reflect.DeepEqual(cfg.Net, flat) {
		t.Errorf("override network replaced: %+v", cfg.Net)
	}
}
