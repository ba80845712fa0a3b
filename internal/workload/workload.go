// Package workload builds the simulated programs ("synthetic benchmarks
// that mimic real applications", in the paper's words) that the
// experiments run: the generic bulk-synchronous compute-communicate loop
// with delay injections, the memory-bound MPI STREAM-triad proxy (Fig. 1),
// the Lattice-Boltzmann proxy (Fig. 2) and the compute-bound divide
// kernel used for noise characterization (Fig. 3).
//
// Every builder satisfies the Workload interface, the contract the
// public Simulate/Sweep pipeline programs against: validate the
// parameters, resolve the communication topology, expose the injected
// delays, and build one simulator program per rank. Optional capability
// interfaces (PhaseHinter, MessageHinter, MemStreamer, Retargetable,
// Injectable) let generic consumers derive analytics parameters and
// rebind a workload to another topology or delay set without knowing
// its concrete type.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/genload"
	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Workload is the common contract of every kernel the simulator can
// run: validate the parameters, resolve the communication topology
// (nil topology with nil error means "no declared structure"), expose
// the injected delays, and build one simulator program per rank.
// Implementations are value types: methods never mutate the receiver,
// so a Workload can be shared freely across concurrent sweep jobs.
//
// The interface is an alias of genload.Part, the same contract declared
// one layer down: the alias makes the two names one identical type, so
// genload's generators (whose rebinding methods return Part) satisfy
// Retargetable and Injectable here while the package dependency stays
// one-way (this package imports genload, never the reverse).
type Workload = genload.Part

// PhaseHinter is implemented by workloads whose execution-phase length
// is statically known (compute-bound kernels); the hint parameterizes
// idle-wave detection thresholds. Zero means "not statically known".
type PhaseHinter interface {
	PhaseHint() sim.Time
}

// MessageHinter is implemented by workloads with a characteristic
// per-neighbor message size; the hint drives protocol-aware analytics
// (eager vs. rendezvous front tracking).
type MessageHinter interface {
	MessageHint() int
}

// MemStreamer is implemented by memory-bound workloads; it reports the
// volume one rank streams through its socket per time step, the basis
// of achieved-memory-bandwidth metrics. Zero means compute-bound.
type MemStreamer interface {
	MemBytesPerStep() float64
}

// Retargetable workloads can be rebound to another topology — the hook
// that lets a topology axis compose with a workload axis in sweeps.
type Retargetable interface {
	WithTopology(topology.Topology) Workload
}

// Injectable workloads accept additional one-off delays on top of the
// ones they already carry.
type Injectable interface {
	WithInjections(...noise.Injection) Workload
}

// Compile-time checks: all builders, including the genload generators,
// satisfy the full contract (the Workload alias makes genload's
// Part-returning methods match the capability interfaces exactly).
var (
	_ Workload = BulkSync{}
	_ Workload = StreamTriad{}
	_ Workload = LBM{}
	_ Workload = DivideKernel{}
	_ Workload = genload.GenWorkload{}
	_ Workload = genload.JobMix{}
	_ Workload = genload.Replay{}

	_ = []PhaseHinter{BulkSync{}, DivideKernel{}, genload.GenWorkload{}, genload.Replay{}}
	_ = []MessageHinter{BulkSync{}, StreamTriad{}, LBM{}, DivideKernel{}, genload.GenWorkload{}, genload.Replay{}}
	_ = []MemStreamer{BulkSync{}, StreamTriad{}, LBM{}}
	_ = []Retargetable{BulkSync{}, StreamTriad{}, LBM{}, DivideKernel{}, genload.GenWorkload{}}
	_ = []Injectable{BulkSync{}, StreamTriad{}, LBM{}, DivideKernel{}, genload.GenWorkload{}, genload.JobMix{}, genload.Replay{}}
)

// BulkSync is the paper's canonical benchmark skeleton: per time step an
// execution phase followed by a non-blocking neighbor exchange
// (Isend/Irecv to every neighbor, then Waitall). One-off delays can be
// injected into specific (rank, step) execution phases. The neighbor
// pattern comes from any topology.Topology — a chain for the paper's
// experiments, a Grid/torus for multi-dimensional halo exchange.
type BulkSync struct {
	Topo  topology.Topology
	Steps int
	// Texec is the compute-bound execution phase length (3 ms in most of
	// the paper's experiments). May be zero if MemBytes is set.
	Texec sim.Time
	// MemBytes, if positive, makes each execution phase memory-bound:
	// the phase streams this many bytes through the rank's socket.
	MemBytes float64
	// Bytes is the message size per neighbor (8192 B default in the
	// paper; the eager limit decides the protocol).
	Bytes int
	// Injections are deliberate one-off delays.
	Injections []noise.Injection
}

// Validate checks the workload parameters.
func (b BulkSync) Validate() error {
	if b.Topo == nil || b.Topo.Ranks() <= 0 {
		return fmt.Errorf("workload: bulk-sync needs a topology")
	}
	if b.Steps <= 0 {
		return fmt.Errorf("workload: need positive step count, got %d", b.Steps)
	}
	if !sim.NonNegative(b.Texec) || !sim.NonNegative(b.MemBytes) {
		return fmt.Errorf("workload: negative or non-finite execution phase")
	}
	if b.Texec == 0 && b.MemBytes == 0 {
		return fmt.Errorf("workload: execution phase has zero length")
	}
	if b.Bytes <= 0 {
		return fmt.Errorf("workload: need positive message size, got %d", b.Bytes)
	}
	for _, inj := range b.Injections {
		if inj.Rank < 0 || inj.Rank >= b.Topo.Ranks() {
			return fmt.Errorf("workload: injection rank %d out of range", inj.Rank)
		}
		if inj.Step < 0 || inj.Step >= b.Steps {
			return fmt.Errorf("workload: injection step %d out of range", inj.Step)
		}
		if !sim.Positive(inj.Duration) {
			return fmt.Errorf("workload: non-positive or non-finite injection duration %v", inj.Duration)
		}
	}
	return nil
}

// Topology returns the workload's topology.
func (b BulkSync) Topology() (topology.Topology, error) {
	if b.Topo == nil || b.Topo.Ranks() <= 0 {
		return nil, fmt.Errorf("workload: bulk-sync needs a topology")
	}
	return b.Topo, nil
}

// Delays lists the injected one-off delays.
func (b BulkSync) Delays() []noise.Injection { return b.Injections }

// PhaseHint returns the fixed execution-phase length (zero when the
// phase is purely memory-bound).
func (b BulkSync) PhaseHint() sim.Time { return b.Texec }

// MessageHint returns the per-neighbor message size.
func (b BulkSync) MessageHint() int { return b.Bytes }

// MemBytesPerStep returns the per-rank memory traffic per step.
func (b BulkSync) MemBytesPerStep() float64 { return b.MemBytes }

// WithTopology returns a copy of the workload bound to the topology.
func (b BulkSync) WithTopology(t topology.Topology) Workload {
	b.Topo = t
	return b
}

// WithInjections returns a copy carrying the extra delays.
func (b BulkSync) WithInjections(inj ...noise.Injection) Workload {
	b.Injections = appendInjections(b.Injections, inj)
	return b
}

// String renders the workload in the Parse flag syntax
// ("bulk:18:periodic", "bulk:4x4:d=2:steps=50"): the topology's own
// spec with its kind prefix folded into the bulk shape segment, so the
// label re-parses. A torus prefix becomes an explicit periodic option,
// since the bulk shape grammar only distinguishes chain from grid by
// shape. Numeric options are rendered whenever they differ from the
// Parse defaults, so the label carries the full parameterization back
// through Parse; only purely programmatic state (MemBytes, Injections)
// has no spelling.
func (b BulkSync) String() string {
	if b.Topo == nil {
		return "bulk"
	}
	spec := b.Topo.String()
	kind, rest, _ := strings.Cut(spec, ":")
	s := "bulk:" + rest
	if kind == "torus" {
		s += ":periodic"
	}
	s += stepsLabel(b.Steps)
	if b.Texec > 0 && b.Texec != defaultBulkTexec {
		s += ":texec=" + sim.FormatDuration(b.Texec)
	}
	if b.Bytes > 0 && b.Bytes != defaultBulkBytes {
		s += fmt.Sprintf(":bytes=%d", b.Bytes)
	}
	return s
}

// Programs builds one program per rank.
func (b BulkSync) Programs() ([]mpisim.Program, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return genload.BulkLoop{
		Topo: b.Topo, Steps: b.Steps, Bytes: b.Bytes, MemBytes: b.MemBytes, Injections: b.Injections,
		Fill: func(_ int, exec, _ []sim.Time) {
			for s := range exec {
				exec[s] = b.Texec
			}
		},
	}.Programs(), nil
}

// StreamTriad is the Fig. 1 proxy: a pure-MPI McCalpin STREAM triad
// (A(:)=B(:)+s*C(:)) in a strong-scaling setup. The overall working set
// is split evenly across ranks; after each loop traversal every rank
// exchanges fixed-size messages with both ring neighbors.
type StreamTriad struct {
	Ranks int
	Steps int
	// WorkingSet is the total per-step memory traffic in bytes (the
	// paper's V_mem = 1.2 GB).
	WorkingSet float64
	// MessageBytes is the per-neighbor exchange volume (V_net = 2 MB).
	MessageBytes int
	// Injections allow delay experiments on the triad.
	Injections []noise.Injection
	// Topo optionally replaces the default closed ring — e.g. a 2-D
	// torus for a multi-dimensional domain decomposition. Its rank
	// count must match Ranks.
	Topo topology.Topology
}

// bulk resolves the triad onto its bulk-synchronous skeleton.
func (s StreamTriad) bulk() (BulkSync, error) {
	if s.Ranks < 3 {
		return BulkSync{}, fmt.Errorf("workload: stream triad needs >= 3 ranks for a ring, got %d", s.Ranks)
	}
	if !sim.Positive(s.WorkingSet) {
		return BulkSync{}, fmt.Errorf("workload: non-positive or non-finite working set")
	}
	topo, err := resolveTopo(s.Topo, s.Ranks, topology.Periodic)
	if err != nil {
		return BulkSync{}, err
	}
	return BulkSync{
		Topo:       topo,
		Steps:      s.Steps,
		MemBytes:   s.WorkingSet / float64(s.Ranks),
		Bytes:      s.MessageBytes,
		Injections: s.Injections,
	}, nil
}

// Validate checks the workload parameters.
func (s StreamTriad) Validate() error {
	b, err := s.bulk()
	if err != nil {
		return err
	}
	return b.Validate()
}

// Topology returns the resolved decomposition (a closed ring unless
// Topo overrides it).
func (s StreamTriad) Topology() (topology.Topology, error) {
	b, err := s.bulk()
	if err != nil {
		return nil, err
	}
	return b.Topo, nil
}

// Delays lists the injected one-off delays.
func (s StreamTriad) Delays() []noise.Injection { return s.Injections }

// MessageHint returns the per-neighbor exchange volume.
func (s StreamTriad) MessageHint() int { return s.MessageBytes }

// MemBytesPerStep returns one rank's share of the working set.
func (s StreamTriad) MemBytesPerStep() float64 {
	if s.Ranks <= 0 {
		return 0
	}
	return s.WorkingSet / float64(s.Ranks)
}

// WithTopology returns a copy bound to the topology.
func (s StreamTriad) WithTopology(t topology.Topology) Workload {
	s.Topo = t
	return s
}

// WithInjections returns a copy carrying the extra delays.
func (s StreamTriad) WithInjections(inj ...noise.Injection) Workload {
	s.Injections = appendInjections(s.Injections, inj)
	return s
}

// String renders the workload in the flag syntax
// ("triad:<shape>[:steps=][:ws=][:msg=]"), including every numeric
// option that differs from the Parse defaults so the label re-parses
// to an equal value.
func (s StreamTriad) String() string {
	out := "triad:" + genload.ShapeLabel(s.Topo, s.Ranks) + stepsLabel(s.Steps)
	if s.WorkingSet > 0 && s.WorkingSet != defaultTriadWorkingSet {
		out += ":ws=" + formatFloatOption(s.WorkingSet)
	}
	if s.MessageBytes > 0 && s.MessageBytes != defaultTriadMessageBytes {
		out += fmt.Sprintf(":msg=%d", s.MessageBytes)
	}
	return out
}

// Programs builds the triad programs, on a closed ring unless Topo
// overrides the decomposition.
func (s StreamTriad) Programs() ([]mpisim.Program, error) {
	b, err := s.bulk()
	if err != nil {
		return nil, err
	}
	return b.Programs()
}

// resolveTopo resolves a builder's optional topology: nil yields the
// default bidirectional d=1 chain on n ranks with the given boundary
// (Periodic = the canonical ring); an explicit topology must agree
// with the builder's rank count.
func resolveTopo(topo topology.Topology, n int, bound topology.Boundary) (topology.Topology, error) {
	if topo == nil {
		c, err := topology.NewChain(n, 1, topology.Bidirectional, bound)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	if topo.Ranks() != n {
		return nil, fmt.Errorf("workload: topology %v has %d ranks, workload declares %d",
			topo, topo.Ranks(), n)
	}
	return topo, nil
}

// appendInjections concatenates two delay lists without aliasing either.
func appendInjections(base, extra []noise.Injection) []noise.Injection {
	out := make([]noise.Injection, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// LBM is the Fig. 2 proxy: a double-precision D3Q19 lattice-Boltzmann
// solver with single relaxation time, domain-decomposed along the outer
// dimension only, with periodic boundary conditions. Each rank streams
// its slab (19 distributions, two grids) and exchanges face halos with
// its two neighbors; the paper reports >= 30% communication overhead.
type LBM struct {
	Ranks int
	Steps int
	// CellsPerDim is the cubic domain edge length (302 in the paper,
	// including the boundary layer).
	CellsPerDim int
	// Injections allow delay experiments on the LBM proxy.
	Injections []noise.Injection
	// Topo optionally replaces the paper's slab (outer-dimension-only)
	// decomposition ring with an arbitrary topology, e.g. a 2-D or 3-D
	// torus for pencil/block decompositions. Its rank count must match
	// Ranks.
	Topo topology.Topology
}

// bytesPerCell is the memory traffic per lattice cell and time step: 19
// distributions, 8 B each, read + write (two-grid scheme).
const bytesPerCell = 19 * 8 * 2

// haloDistributions is the number of distributions that cross a face in
// a D3Q19 stencil (5 point toward each face).
const haloDistributions = 5

// MemBytesPerRank returns the per-step memory traffic of one rank's slab.
func (l LBM) MemBytesPerRank() float64 {
	cells := float64(l.CellsPerDim) * float64(l.CellsPerDim) * float64(l.CellsPerDim)
	return cells * bytesPerCell / float64(l.Ranks)
}

// HaloBytes returns the per-neighbor halo exchange volume.
func (l LBM) HaloBytes() int {
	face := l.CellsPerDim * l.CellsPerDim
	return face * haloDistributions * 8
}

// bulk resolves the LBM proxy onto its bulk-synchronous skeleton.
func (l LBM) bulk() (BulkSync, error) {
	if l.Ranks < 3 {
		return BulkSync{}, fmt.Errorf("workload: LBM needs >= 3 ranks, got %d", l.Ranks)
	}
	if l.CellsPerDim <= 0 {
		return BulkSync{}, fmt.Errorf("workload: non-positive domain size")
	}
	topo, err := resolveTopo(l.Topo, l.Ranks, topology.Periodic)
	if err != nil {
		return BulkSync{}, err
	}
	return BulkSync{
		Topo:       topo,
		Steps:      l.Steps,
		MemBytes:   l.MemBytesPerRank(),
		Bytes:      l.HaloBytes(),
		Injections: l.Injections,
	}, nil
}

// Validate checks the workload parameters.
func (l LBM) Validate() error {
	b, err := l.bulk()
	if err != nil {
		return err
	}
	return b.Validate()
}

// Topology returns the resolved decomposition (a closed ring unless
// Topo overrides it).
func (l LBM) Topology() (topology.Topology, error) {
	b, err := l.bulk()
	if err != nil {
		return nil, err
	}
	return b.Topo, nil
}

// Delays lists the injected one-off delays.
func (l LBM) Delays() []noise.Injection { return l.Injections }

// MessageHint returns the per-neighbor halo volume.
func (l LBM) MessageHint() int { return l.HaloBytes() }

// MemBytesPerStep returns one rank's slab traffic per step.
func (l LBM) MemBytesPerStep() float64 {
	if l.Ranks <= 0 {
		return 0
	}
	return l.MemBytesPerRank()
}

// WithTopology returns a copy bound to the topology.
func (l LBM) WithTopology(t topology.Topology) Workload {
	l.Topo = t
	return l
}

// WithInjections returns a copy carrying the extra delays.
func (l LBM) WithInjections(inj ...noise.Injection) Workload {
	l.Injections = appendInjections(l.Injections, inj)
	return l
}

// String renders the workload in the flag syntax
// ("lbm:<shape>[:steps=]:cells=<n>"), including the step count when it
// differs from the Parse default so the label re-parses to an equal
// value.
func (l LBM) String() string {
	return fmt.Sprintf("lbm:%s%s:cells=%d", genload.ShapeLabel(l.Topo, l.Ranks), stepsLabel(l.Steps), l.CellsPerDim)
}

// Programs builds the LBM programs, on a closed ring unless Topo
// overrides the decomposition.
func (l LBM) Programs() ([]mpisim.Program, error) {
	b, err := l.bulk()
	if err != nil {
		return nil, err
	}
	return b.Programs()
}

// DivideKernel is the Fig. 3 noise-characterization workload: phases of
// back-to-back dependent floating-point divides (whose duration is known
// exactly) alternating with latency-bound next-neighbor communication.
// Deviations of the measured phase duration from PhaseTime are pure
// noise.
type DivideKernel struct {
	Ranks     int
	Steps     int
	PhaseTime sim.Time // 3 ms in the paper
	// Injections allow delay experiments on the divide kernel.
	Injections []noise.Injection
	// Topo optionally replaces the default open bidirectional chain.
	// Its rank count must match Ranks.
	Topo topology.Topology
}

// divideMsgBytes is the divide kernel's message size: one double,
// latency-bound.
const divideMsgBytes = 8

// bulk resolves the divide kernel onto its bulk-synchronous skeleton.
func (d DivideKernel) bulk() (BulkSync, error) {
	if d.Ranks < 2 {
		return BulkSync{}, fmt.Errorf("workload: divide kernel needs >= 2 ranks, got %d", d.Ranks)
	}
	if !sim.Positive(d.PhaseTime) {
		return BulkSync{}, fmt.Errorf("workload: non-positive or non-finite phase time %v", d.PhaseTime)
	}
	topo, err := resolveTopo(d.Topo, d.Ranks, topology.Open)
	if err != nil {
		return BulkSync{}, err
	}
	return BulkSync{
		Topo:       topo,
		Steps:      d.Steps,
		Texec:      d.PhaseTime,
		Bytes:      divideMsgBytes,
		Injections: d.Injections,
	}, nil
}

// Validate checks the workload parameters.
func (d DivideKernel) Validate() error {
	b, err := d.bulk()
	if err != nil {
		return err
	}
	return b.Validate()
}

// Topology returns the resolved pattern (an open bidirectional chain
// unless Topo overrides it).
func (d DivideKernel) Topology() (topology.Topology, error) {
	b, err := d.bulk()
	if err != nil {
		return nil, err
	}
	return b.Topo, nil
}

// Delays lists the injected one-off delays.
func (d DivideKernel) Delays() []noise.Injection { return d.Injections }

// PhaseHint returns the exact divide-phase duration.
func (d DivideKernel) PhaseHint() sim.Time { return d.PhaseTime }

// MessageHint returns the latency-bound message size.
func (d DivideKernel) MessageHint() int { return divideMsgBytes }

// WithTopology returns a copy bound to the topology.
func (d DivideKernel) WithTopology(t topology.Topology) Workload {
	d.Topo = t
	return d
}

// WithInjections returns a copy carrying the extra delays.
func (d DivideKernel) WithInjections(inj ...noise.Injection) Workload {
	d.Injections = appendInjections(d.Injections, inj)
	return d
}

// String renders the workload in the flag syntax
// ("divide:<shape>[:steps=][:phase=]"), including every numeric option
// that differs from the Parse defaults so the label re-parses to an
// equal value.
func (d DivideKernel) String() string {
	out := "divide:" + genload.ShapeLabel(d.Topo, d.Ranks) + stepsLabel(d.Steps)
	if d.PhaseTime > 0 && d.PhaseTime != defaultDividePhase {
		out += ":phase=" + sim.FormatDuration(d.PhaseTime)
	}
	return out
}

// Programs builds the divide-kernel programs with minimal messages, on
// an open bidirectional chain unless Topo overrides the pattern.
func (d DivideKernel) Programs() ([]mpisim.Program, error) {
	b, err := d.bulk()
	if err != nil {
		return nil, err
	}
	return b.Programs()
}
