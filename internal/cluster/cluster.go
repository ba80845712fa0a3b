// Package cluster describes the machines the paper's experiments run on —
// "Emmy" (Ivy Bridge + QDR InfiniBand), "Meggie" (Broadwell + Omni-Path) —
// plus an idealized pure-Hockney "Simulated" system standing in for the
// LogGOPSim reference. A Machine bundles the node structure (cores per
// socket, sockets per node), memory bandwidth, communication cost model
// parameters and the natural-noise profile, and knows how to materialize
// the pieces the simulator needs.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Machine is a cluster description.
type Machine struct {
	Name           string
	CoresPerSocket int
	SocketsPerNode int
	// MemBandwidth is the per-socket saturated memory bandwidth in
	// bytes per second (~40 GB/s on both the paper's systems).
	MemBandwidth float64

	// Inter-node network parameters.
	NetLatency   sim.Time
	NetBandwidth float64 // bytes per second per link direction
	// Intra-node (shared-memory) communication parameters.
	IntraLatency   sim.Time
	IntraBandwidth float64
	// EagerLimit in bytes; the paper quotes 131072 B (16384 doubles) for
	// the Intel MPI inter-node default.
	EagerLimit int

	// SendOverhead/RecvOverhead are per-message CPU overheads (LogGOPS o).
	SendOverhead sim.Time
	RecvOverhead sim.Time

	// Noise describes the machine's natural fine-grained noise — any
	// composable noise.NoiseProfile (ExponentialNoise, BimodalNoise,
	// PeriodicNoise, combinations, or an empirical mixture Profile);
	// nil means a noise-free system.
	Noise noise.NoiseProfile
}

// Validate checks the machine description.
func (m Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("cluster: machine needs a name")
	}
	if m.CoresPerSocket <= 0 || m.SocketsPerNode <= 0 {
		return fmt.Errorf("cluster: %s: invalid node structure %dx%d", m.Name, m.SocketsPerNode, m.CoresPerSocket)
	}
	for _, bw := range []float64{m.MemBandwidth, m.NetBandwidth, m.IntraBandwidth} {
		if !(bw > 0) || math.IsInf(bw, 0) {
			return fmt.Errorf("cluster: %s: bandwidth %g is not a positive number", m.Name, bw)
		}
	}
	for _, t := range []sim.Time{m.NetLatency, m.IntraLatency, m.SendOverhead, m.RecvOverhead} {
		if !sim.NonNegative(t) {
			return fmt.Errorf("cluster: %s: negative or non-finite latency or overhead", m.Name)
		}
	}
	if m.EagerLimit < 0 {
		return fmt.Errorf("cluster: %s: negative eager limit", m.Name)
	}
	if m.Noise != nil {
		if err := m.Noise.Validate(); err != nil {
			return fmt.Errorf("cluster: %s: %w", m.Name, err)
		}
	}
	return nil
}

// New validates and completes a custom machine description: it is the
// builder behind user-defined systems. Zero-valued fields whose zero is
// not meaningful fall back to the custom baseline — the dual-socket
// ten-core node structure and bandwidths shared by the paper's systems,
// and the 131072 B Intel MPI eager limit. Latencies, overheads and Noise
// are taken as given (zero latency and nil noise are meaningful: an
// ideal, silent link). To force rendezvous for every message, set an
// eager limit smaller than the smallest message instead of zero.
func New(m Machine) (Machine, error) {
	if m.Name == "" {
		m.Name = "custom"
	}
	if m.CoresPerSocket == 0 {
		m.CoresPerSocket = 10
	}
	if m.SocketsPerNode == 0 {
		m.SocketsPerNode = 2
	}
	if m.MemBandwidth == 0 {
		m.MemBandwidth = 40e9
	}
	if m.NetBandwidth == 0 {
		m.NetBandwidth = 3e9
	}
	if m.IntraBandwidth == 0 {
		m.IntraBandwidth = 6e9
	}
	if m.EagerLimit == 0 {
		m.EagerLimit = 131072
	}
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}

// CoresPerNode returns the machine's cores per node.
func (m Machine) CoresPerNode() int { return m.CoresPerSocket * m.SocketsPerNode }

// Placement lays the given number of ranks out compactly on the machine.
func (m Machine) Placement(ranks int) (topology.Placement, error) {
	return topology.NewPlacement(ranks, m.CoresPerSocket, m.SocketsPerNode)
}

// SpreadPlacement lays ranks out with a fixed number of processes per node.
func (m Machine) SpreadPlacement(ranks, ppn int) (topology.SpreadPlacement, error) {
	return topology.NewSpreadPlacement(ranks, ppn, m.CoresPerSocket, m.SocketsPerNode)
}

// NetModel builds the machine's hierarchical communication model for the
// given placement. Both layers carry the machine's per-message overheads;
// the intra-node layer uses the shared-memory latency/bandwidth.
func (m Machine) NetModel(loc topology.Locator) (netmodel.Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	inv := func(bw float64) sim.Time { return sim.Time(1 / bw) }
	intra, err := netmodel.NewLogGOPS(m.IntraLatency, m.SendOverhead, m.RecvOverhead,
		inv(m.IntraBandwidth), 0, m.EagerLimit)
	if err != nil {
		return nil, err
	}
	inter, err := netmodel.NewLogGOPS(m.NetLatency, m.SendOverhead, m.RecvOverhead,
		inv(m.NetBandwidth), 0, m.EagerLimit)
	if err != nil {
		return nil, err
	}
	return netmodel.NewHierarchical(loc, intra, intra, inter)
}

// SocketLocator is a rank placement that knows each rank's socket: a
// compact topology.Placement or a topology.SpreadPlacement.
type SocketLocator interface {
	topology.Locator
	Socket(rank int) int
}

// CoreBandwidth is the single-core memory bandwidth limit of the
// memory-bound configuration: ~1/6 of the socket's saturated bandwidth.
func (m Machine) CoreBandwidth() float64 { return m.MemBandwidth / 6 }

// MemBoundConfig returns the simulator configuration memory-bound
// programs run under on placement place (the Fig. 1/2 configuration):
// the machine's hierarchical network, each socket's memory bandwidth
// shared by its ranks up to CoreBandwidth per rank, and communication
// DMA charged against it. A non-nil net replaces the
// machine's network, which is then not built. The caller sets Ranks,
// Noise and the remaining fields.
func (m Machine) MemBoundConfig(place SocketLocator, net netmodel.Model) (mpisim.Config, error) {
	if net == nil {
		var err error
		if net, err = m.NetModel(place); err != nil {
			return mpisim.Config{}, err
		}
	}
	return mpisim.Config{
		Net:                 net,
		SocketOf:            place.Socket,
		SocketBandwidth:     m.MemBandwidth,
		CoreBandwidth:       m.CoreBandwidth(),
		ChargeCommBandwidth: true,
	}, nil
}

// FlatNetModel builds a single-level model using only the inter-node
// parameters — the right choice for one-process-per-node experiments.
func (m Machine) FlatNetModel() (netmodel.Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return netmodel.NewLogGOPS(m.NetLatency, m.SendOverhead, m.RecvOverhead,
		sim.Time(1/m.NetBandwidth), 0, m.EagerLimit)
}

// NaturalNoise returns the machine's natural-noise injector (nil for a
// noise-free machine). texec scales relative noise components and maps
// steps to wall time for periodic ones; callers whose machines carry
// only absolute noise (the built-in systems) may pass zero.
func (m Machine) NaturalNoise(seed uint64, texec sim.Time) (mpisim.NoiseFunc, error) {
	if m.Noise == nil {
		return nil, nil
	}
	return m.Noise.Build(seed, texec)
}

// Emmy returns the InfiniBand system: dual-socket ten-core Ivy Bridge
// nodes at 2.2 GHz, ~40 GB/s memory bandwidth per socket, QDR InfiniBand
// (40 Gbit/s per link and direction; ~3 GB/s asymptotic point-to-point as
// measured in the paper's Fig. 1 model). SMT is enabled in production, so
// the natural noise is the mild unimodal Fig. 3a distribution.
func Emmy() Machine {
	return Machine{
		Name:           "emmy-infiniband",
		CoresPerSocket: 10,
		SocketsPerNode: 2,
		MemBandwidth:   40e9,
		NetLatency:     sim.Micro(1.8),
		NetBandwidth:   3e9,
		IntraLatency:   sim.Micro(0.5),
		IntraBandwidth: 6e9,
		EagerLimit:     131072,
		SendOverhead:   sim.Micro(0.4),
		RecvOverhead:   sim.Micro(0.4),
		Noise:          noise.EmmyNoise(),
	}
}

// Meggie returns the Omni-Path system: dual-socket ten-core Broadwell
// nodes, fat-tree Omni-Path (100 Gbit/s per link and direction). SMT is
// disabled in production, which exposes the bimodal driver noise of
// Fig. 3b.
func Meggie() Machine {
	return Machine{
		Name:           "meggie-omnipath",
		CoresPerSocket: 10,
		SocketsPerNode: 2,
		MemBandwidth:   40e9,
		NetLatency:     sim.Micro(1.1),
		NetBandwidth:   10e9,
		IntraLatency:   sim.Micro(0.5),
		IntraBandwidth: 6e9,
		EagerLimit:     131072,
		SendOverhead:   sim.Micro(0.6),
		RecvOverhead:   sim.Micro(0.6),
		Noise:          noise.MeggieNoise(),
	}
}

// Simulated returns the idealized reference system: a pure Hockney
// network with no CPU overheads and no natural noise, standing in for
// the paper's modified LogGOPSim.
func Simulated() Machine {
	return Machine{
		Name:           "simulated-hockney",
		CoresPerSocket: 10,
		SocketsPerNode: 2,
		MemBandwidth:   40e9,
		NetLatency:     sim.Micro(2),
		NetBandwidth:   3e9,
		IntraLatency:   sim.Micro(2),
		IntraBandwidth: 3e9,
		EagerLimit:     131072,
	}
}

// All returns the three reference machines in the order the paper's
// Fig. 8 legend lists them.
func All() []Machine {
	return []Machine{Emmy(), Meggie(), Simulated()}
}

// ByName looks up a reference machine by name prefix ("emmy", "meggie",
// "simulated"), case-sensitively.
func ByName(name string) (Machine, error) {
	for _, m := range All() {
		word, _, _ := strings.Cut(m.Name, "-")
		if m.Name == name || strings.HasPrefix(m.Name, name+"-") || word == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("cluster: unknown machine %q (want emmy, meggie or simulated)", name)
}
