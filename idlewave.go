// Package idlewave is the public API of the idle-wave propagation and
// decay simulator — a from-scratch Go reproduction of Afzal, Hager and
// Wellein, "Propagation and Decay of Injected One-Off Delays on Clusters:
// A Case Study" (IEEE CLUSTER 2019; extended version arXiv:1905.10603).
//
// The package re-exports the pieces a downstream user needs to build
// idle-wave experiments of their own:
//
//   - composable machine descriptions — the reference systems (Emmy,
//     Meggie, Simulated) plus user-built ones via NewMachine/
//     ParseMachine, with first-class network models (Hockney, LogGOPS,
//     Hierarchical) and noise profiles (ExponentialNoise, BimodalNoise,
//     PeriodicNoise, combinations);
//   - topologies (1-D chains, N-dimensional Cartesian grids and tori)
//     and first-class workloads over any of them — all four paper
//     kernels (BulkSync, StreamTriad, LBM, DivideKernel) plus
//     process-style programs run through the same Simulate/Sweep
//     pipeline via the Workload interface;
//   - the message-passing simulator (eager/rendezvous protocols,
//     gated-progress rendezvous semantics, injected delays and noise,
//     memory-bandwidth sharing);
//   - wave analytics (front tracking, Eq. 2 speed, decay rates,
//     cancellation detection);
//   - the named reproduction experiments for every figure of the paper.
//
// # Quick start
//
//	res, err := idlewave.Simulate(idlewave.ScenarioSpec{
//		Ranks: 18, Steps: 20,
//		Delay:     idlewave.Inject(5, 1, 13.5*time.Millisecond),
//		Direction: idlewave.Bidirectional,
//	})
//
// See examples/ for complete programs.
package idlewave

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/wave"
	"repro/internal/workload"
)

// Re-exported topology selectors.
const (
	Unidirectional = topology.Unidirectional
	Bidirectional  = topology.Bidirectional
	Open           = topology.Open
	Periodic       = topology.Periodic
)

// Topology is the communication structure a scenario runs on: the
// number of ranks, each rank's send/receive partners, and the hop
// metric wave analytics fit against. Chain and Grid are the built-in
// implementations; anything satisfying the interface (and its duality
// and metric contracts, see internal/topology) works.
type Topology = topology.Topology

// Chain is the paper's one-dimensional process topology.
type Chain = topology.Chain

// Grid is an N-dimensional Cartesian grid or torus topology with
// row-major rank order — the decomposition behind 2-D/3-D halo-exchange
// workloads.
type Grid = topology.Grid

// NewChain builds a validated chain topology: n ranks, neighbor
// distance d, unidirectional or bidirectional exchange, open or
// periodic ends.
func NewChain(n, d int, dir Direction, bound Boundary) (Chain, error) {
	return topology.NewChain(n, d, dir, bound)
}

// NewGrid builds a validated N-dimensional grid topology. bounds holds
// either one boundary for every dimension or one per dimension.
func NewGrid(extents []int, d int, dir Direction, bounds ...Boundary) (Grid, error) {
	return topology.NewGrid(extents, d, dir, bounds...)
}

// Torus2D builds an ny x nx fully periodic bidirectional torus with
// neighbor distance 1 — the canonical 2-D halo-exchange topology.
func Torus2D(ny, nx int) (Grid, error) { return topology.Torus2D(ny, nx) }

// Torus3D builds an nz x ny x nx fully periodic bidirectional torus
// with neighbor distance 1.
func Torus3D(nz, ny, nx int) (Grid, error) { return topology.Torus3D(nz, ny, nx) }

// ParseTopology builds a topology from the command-line flag syntax:
// "chain:64", "chain:18:periodic:uni", "grid:32x32:periodic",
// "torus:8x8x8:d=2". See cmd/sweep -topology.
func ParseTopology(s string) (Topology, error) { return topology.Parse(s) }

// Shells groups every rank of a topology by hop distance from the
// source rank: Shells(t, s)[h] lists the ranks at distance h. On a
// torus these are the Manhattan-ball surfaces an idle wave expands
// through, one shell per compute-communicate period.
func Shells(t Topology, source int) [][]int { return topology.Shells(t, source) }

// Injection places a one-off delay at (rank, step).
type Injection = noise.Injection

// Inject builds an Injection from a time.Duration.
func Inject(rank, step int, d time.Duration) Injection {
	return Injection{Rank: rank, Step: step, Duration: sim.Time(d.Seconds())}
}

// ScenarioSpec describes an idle-wave scenario: which kernel runs
// (Workload), on what communication structure, on which machine, under
// what noise.
type ScenarioSpec struct {
	// Machine defaults to Emmy() when zero-valued. Build custom systems
	// with NewMachine or ParseMachine; the machine's natural noise and
	// derived network model apply unless Noise/NetModel override them.
	Machine Machine
	// Noise optionally replaces the injected-noise profile — the
	// exponential noise a non-zero NoiseLevel would add. Any
	// NoiseProfile works: ExponentialNoise{Level: E} reproduces the
	// NoiseLevel stream byte for byte, PeriodicNoise adds OS-jitter,
	// CombineNoise mixes components. The machine's natural noise still
	// applies on top (silence it in the machine description, e.g.
	// ParseMachine("emmy:noise=0")). Setting both Noise and a non-zero
	// NoiseLevel is an error; nil keeps the NoiseLevel behavior
	// unchanged.
	Noise NoiseProfile
	// NetModel optionally overrides the communication cost model the
	// run uses. When nil, the model derives from the Machine: its flat
	// inter-node parameters for compute-bound runs, its hierarchical
	// placement-aware model for memory-bound ones — byte-identical to
	// the behavior before this field existed. Memory-bound runs keep
	// their placement-based socket bandwidth sharing either way.
	NetModel NetModel
	// Workload optionally selects the kernel the scenario runs — any
	// Workload (BulkSync, StreamTriad, LBM, DivideKernel,
	// ProcessWorkload, or a custom implementation). When nil, a
	// bulk-synchronous chain kernel is built from the scalar fields
	// below — the original chain-BulkSync behavior, byte for byte.
	// When set, the workload carries its own topology, step count and
	// message sizes: Steps and NeighborDistance must be zero, Ranks (if
	// non-zero) must agree with the workload topology, Topology (if
	// non-nil) rebinds the workload's decomposition, Delay is added to
	// the workload's own injections, and Texec/MessageBytes act as
	// analytics overrides (zero = derive from the workload). The
	// remaining chain-shape fields, Direction and Boundary, are ignored
	// (their zero values are indistinguishable from "unset"); express
	// the exchange pattern through the workload's topology instead.
	Workload Workload
	// Topology optionally selects the communication structure directly
	// (a Grid/torus from NewGrid/Torus2D/Torus3D, a Chain, or any other
	// Topology). When nil, a chain is built from Ranks,
	// NeighborDistance, Direction and Boundary. When set, those four
	// chain fields are ignored (Ranks, if non-zero, must agree with the
	// topology's rank count).
	Topology Topology
	// Ranks is the number of processes (one per node).
	Ranks int
	// Steps is the number of compute-communicate time steps.
	Steps int
	// Texec is the execution phase length; default 3 ms. With a
	// Workload set it only parameterizes wave analytics (the idle-wave
	// detection threshold is half an execution phase): zero derives it
	// from the workload's phase hint or memory footprint.
	Texec time.Duration
	// MessageBytes selects the message size and thereby the protocol
	// (eager at or below the machine's eager limit); default 8192.
	// With a Workload set it only parameterizes protocol-aware
	// analytics: zero derives it from the workload's message hint.
	MessageBytes int
	// NeighborDistance is the paper's d; default 1.
	NeighborDistance int
	// Direction selects unidirectional or bidirectional exchange.
	Direction topology.Direction
	// Boundary selects open or periodic chain ends.
	Boundary topology.Boundary
	// Delay optionally injects one-off delays.
	Delay []Injection
	// NoiseLevel is the paper's E: mean relative fine-grained noise per
	// execution phase (0 = silent).
	NoiseLevel float64
	// Seed makes noise reproducible.
	Seed uint64
	// Trace selects how much of the run is recorded. The default,
	// TraceFull, keeps the complete per-rank timeline and powers every
	// Result analytic. TraceSteps keeps only per-step completion times;
	// TraceOff records nothing — the mode for 10^5-rank scenarios, where
	// the trace would dwarf the simulation state. With reduced tracing,
	// trace-based analytics (IdleByStep, TotalIdle, MemBandwidth, ...)
	// see an empty trace; wave-front analytics remain available for the
	// ranks listed in FrontSources.
	Trace TraceMode
	// FrontSources lists source ranks whose idle-wave fronts are tracked
	// incrementally during the run (constant memory per rank, no trace
	// buffering). With Trace reduced, WaveSpeed/WaveDecay/ShellArrivals
	// work only for these sources; under TraceFull the recorded trace
	// serves every source and FrontSources is unnecessary.
	FrontSources []int
	// RecordTo, when non-empty, writes the executed run to that path as
	// a versioned trace v2 file (CRC-framed binary): the per-(rank, step)
	// execution-phase and injected-delay durations from the built
	// programs, every noise draw the run consumed, and the scenario
	// context (topology, machine, message size) replay needs.
	// ReplayScenario turns the file back into a scenario whose
	// re-simulation reproduces this run byte-identically (for
	// compute-bound bulk-shaped workloads — BulkSync, GenWorkload,
	// JobMix of those; other shapes record with Exact=false and replay
	// approximately). Recording requires a workload with a re-parseable
	// topology.
	RecordTo string
	// Shards requests conservative parallel execution of the simulation
	// itself: the ranks are cut into that many contiguous partitions
	// (chain segments, grid slabs), each driven by its own event engine
	// on its own goroutine and synchronized through lookahead horizons.
	// 0 (the default) runs the classic serial loop. The results are
	// byte-identical at any shard count — scenarios whose cross-partition
	// interactions carry no lookahead automatically fall back to the
	// serial engine (rendezvous-sized messages across a cut, and all
	// memory-bound runs, whose communication-DMA bandwidth charging
	// couples sockets at send time). See docs/ARCHITECTURE.md, "Parallel
	// DES".
	Shards int
}

// TraceMode selects how much of a run the simulator records; see the
// ScenarioSpec.Trace field.
type TraceMode = mpisim.TraceMode

// Trace modes, re-exported from the simulator.
const (
	TraceFull  = mpisim.TraceFull
	TraceSteps = mpisim.TraceSteps
	TraceOff   = mpisim.TraceOff
)

// withDefaults resolves the spec's defaulted fields — Machine, Texec and
// MessageBytes — to the values a run actually uses, so recorded specs
// (Result, SweepPoint.Spec) reflect what ran. For workload scenarios the
// analytics parameters derive from the workload's hints: a statically
// known phase length, or a saturated-share streaming estimate for
// memory-bound kernels. Idempotent.
func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.Machine.Name == "" {
		s.Machine = Emmy()
	}
	if s.Texec == 0 {
		s.Texec = s.defaultTexec()
	}
	if s.MessageBytes == 0 {
		s.MessageBytes = s.defaultMessageBytes()
	}
	return s
}

// defaultTexec derives the analytics execution-phase length: the
// workload's static phase hint if it has one, a streaming-time estimate
// for memory-bound workloads, 3 ms (the paper's standard) otherwise.
func (s ScenarioSpec) defaultTexec() time.Duration {
	if s.Workload != nil {
		if ph, ok := s.Workload.(workload.PhaseHinter); ok && ph.PhaseHint() > 0 {
			return time.Duration(float64(ph.PhaseHint()) * float64(time.Second))
		}
		if ms, ok := s.Workload.(workload.MemStreamer); ok && ms.MemBytesPerStep() > 0 &&
			s.Machine.MemBandwidth > 0 && s.Machine.CoresPerSocket > 0 {
			// Saturated socket: each rank streams at bandwidth/cores.
			sec := ms.MemBytesPerStep() * float64(s.Machine.CoresPerSocket) / s.Machine.MemBandwidth
			return time.Duration(sec * float64(time.Second))
		}
	}
	return 3 * time.Millisecond
}

// defaultMessageBytes derives the analytics message size: the
// workload's hint if it has one, 8192 B (the paper's standard)
// otherwise.
func (s ScenarioSpec) defaultMessageBytes() int {
	if s.Workload != nil {
		if mh, ok := s.Workload.(workload.MessageHinter); ok && mh.MessageHint() > 0 {
			return mh.MessageHint()
		}
	}
	return 8192
}

// resolveTopology returns the topology a spec runs on: the explicit
// Topology when set, otherwise a chain built from the scalar fields.
func (s ScenarioSpec) resolveTopology() (Topology, error) {
	if s.Topology != nil {
		if s.Ranks != 0 && s.Ranks != s.Topology.Ranks() {
			return nil, fmt.Errorf("spec declares %d ranks but topology %v has %d",
				s.Ranks, s.Topology, s.Topology.Ranks())
		}
		return s.Topology, nil
	}
	d := s.NeighborDistance
	if d == 0 {
		d = 1
	}
	c, err := topology.NewChain(s.Ranks, d, s.Direction, s.Boundary)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Result bundles the simulation outcome with the analytics entry points.
type Result struct {
	// Traces is the full per-rank activity record.
	Traces trace.Set
	// End is the total wall-clock runtime in seconds.
	End float64
	// Events is the number of simulation events executed.
	Events uint64

	spec     ScenarioSpec
	topo     Topology // resolved topology the scenario ran on; nil for topology-free workloads
	workload Workload // resolved workload the scenario ran

	// fronts caches the tracked wave front per source rank, so speed,
	// decay and shell analytics on the same source share one TrackFront
	// pass. Guarded by mu: Results may be read from concurrent sweeps.
	mu     sync.Mutex
	fronts map[int]wave.Front

	// streamFronts holds the incrementally tracked fronts of
	// spec.FrontSources — the only front data available when the run
	// recorded no segment timeline.
	streamFronts map[int]*wave.FrontTracker
}

// Topology returns the resolved topology the scenario ran on (nil for
// process-style runs without a declared topology).
func (r *Result) Topology() Topology { return r.topo }

// Workload returns the resolved workload the scenario ran (the implicit
// chain BulkSync for a nil-Workload spec).
func (r *Result) Workload() Workload { return r.workload }

// workloadFor resolves the kernel a spec runs: the explicit Workload —
// retargeted onto spec.Topology and extended with spec.Delay as
// requested — or the implicit chain BulkSync built from the scalar
// fields. Call after withDefaults.
func (s ScenarioSpec) workloadFor() (Workload, error) {
	if s.Workload == nil {
		topo, err := s.resolveTopology()
		if err != nil {
			return nil, err
		}
		return workload.BulkSync{
			Topo:       topo,
			Steps:      s.Steps,
			Texec:      sim.Time(s.Texec.Seconds()),
			Bytes:      s.MessageBytes,
			Injections: s.Delay,
		}, nil
	}
	wl := s.Workload
	if s.Steps != 0 {
		return nil, fmt.Errorf("spec sets Steps=%d, but the workload %v fixes its own step count", s.Steps, wl)
	}
	if s.NeighborDistance != 0 {
		return nil, fmt.Errorf("spec sets NeighborDistance=%d, but the workload %v fixes its own topology", s.NeighborDistance, wl)
	}
	if s.Topology != nil {
		rt, ok := wl.(workload.Retargetable)
		if !ok {
			return nil, fmt.Errorf("workload %v cannot be rebound to a topology", wl)
		}
		wl = rt.WithTopology(s.Topology)
	}
	if len(s.Delay) > 0 {
		in, ok := wl.(workload.Injectable)
		if !ok {
			return nil, fmt.Errorf("workload %v does not accept injected delays", wl)
		}
		wl = in.WithInjections(s.Delay...)
	}
	if s.Ranks != 0 {
		topo, err := wl.Topology()
		if err != nil {
			return nil, err
		}
		if topo != nil && topo.Ranks() != s.Ranks {
			return nil, fmt.Errorf("spec declares %d ranks but workload %v runs on %d",
				s.Ranks, wl, topo.Ranks())
		}
	}
	return wl, nil
}

// Simulate runs a scenario and returns its result. It is one
// workload-agnostic pipeline: resolve defaults, resolve the workload
// (nil selects the chain BulkSync the scalar fields describe), validate
// and build the per-rank programs, run them on the machine — with
// memory-bandwidth sharing and hierarchical placement when the workload
// is memory-bound — and wrap the traces in a Result.
func Simulate(spec ScenarioSpec) (*Result, error) {
	spec = spec.withDefaults()
	if spec.Noise != nil && spec.NoiseLevel != 0 {
		return nil, fmt.Errorf("idlewave: spec sets both Noise (%v) and NoiseLevel (%g); pick one", spec.Noise, spec.NoiseLevel)
	}
	wl, err := spec.workloadFor()
	if err != nil {
		return nil, fmt.Errorf("idlewave: %w", err)
	}
	topo, err := wl.Topology()
	if err != nil {
		return nil, fmt.Errorf("idlewave: %w", err)
	}
	progs, err := wl.Programs()
	if err != nil {
		return nil, fmt.Errorf("idlewave: %w", err)
	}
	var recorder *noiseRecorder
	if spec.RecordTo != "" {
		recorder = newNoiseRecorder(len(progs), programSteps(progs))
	}
	res, trackers, err := spec.run(topo, progs, recorder)
	if err != nil {
		return nil, fmt.Errorf("idlewave: %w", err)
	}
	if recorder != nil {
		if err := writeRecording(spec, wl, topo, progs, res, recorder); err != nil {
			return nil, fmt.Errorf("idlewave: recording to %s: %w", spec.RecordTo, err)
		}
	}
	return &Result{Traces: res.Traces, End: float64(res.End), Events: res.Events,
		spec: spec, topo: topo, workload: wl, streamFronts: trackers}, nil
}

// run executes the built programs on the spec's machine. Compute-bound
// programs run one process per node on the flat network (the paper's
// controlled-experiment configuration); memory-bound programs get a
// compact placement with the hierarchical network, shared socket
// bandwidth and communication-DMA charging (the Fig. 1/2 configuration).
// A non-nil spec.NetModel replaces the machine-derived model; a non-nil
// spec.Noise replaces the NoiseLevel-derived injected noise. The
// FrontSources trackers (if any) observe the run's wait stream and come
// back alongside the simulator result. A non-nil recorder interposes on
// every injector (including the per-shard rebuilds) to capture the
// run's noise draws for trace v2 recording.
func (s ScenarioSpec) run(topo Topology, progs []mpisim.Program, recorder *noiseRecorder) (*mpisim.Result, map[int]*wave.FrontTracker, error) {
	var cfg mpisim.Config
	if memoryBound(progs) {
		place, err := s.Machine.Placement(len(progs))
		if err != nil {
			return nil, nil, err
		}
		if cfg, err = s.Machine.MemBoundConfig(place, s.NetModel); err != nil {
			return nil, nil, err
		}
	} else if s.NetModel != nil {
		cfg.Net = s.NetModel
	} else {
		net, err := s.Machine.FlatNetModel()
		if err != nil {
			return nil, nil, err
		}
		cfg.Net = net
	}
	cfg.Ranks, cfg.Trace = len(progs), s.Trace
	texec := sim.Time(s.Texec.Seconds())
	// buildNoise combines the machine's natural noise with the injected
	// noise (the Noise profile, or NoiseLevel's exponential).
	buildNoise := func() (mpisim.NoiseFunc, error) {
		natural, err := s.Machine.NaturalNoise(s.Seed, texec)
		if err != nil {
			return nil, err
		}
		var injected mpisim.NoiseFunc
		if s.Noise != nil {
			if injected, err = s.Noise.Build(s.Seed+1, texec); err != nil {
				return nil, err
			}
		} else {
			injected = noise.Exponential(s.Seed+1, s.NoiseLevel, texec)
		}
		return recorder.wrap(noise.Combine(natural, injected)), nil
	}
	var err error
	if cfg.Noise, err = buildNoise(); err != nil {
		return nil, nil, err
	}
	if s.Shards < 0 {
		return nil, nil, fmt.Errorf("negative shard count %d", s.Shards)
	}
	cfg.Shards = s.Shards
	if s.Shards > 0 && cfg.Noise != nil {
		// Each shard goroutine needs its own injector instance; every
		// injector in internal/noise derives its per-rank streams from
		// (seed, rank) alone, so rebuilding from the same spec yields
		// byte-identical streams. Construction succeeded above with the
		// same inputs, so a failure here is a programming error.
		cfg.NoiseFactory = func() mpisim.NoiseFunc {
			fn, err := buildNoise()
			if err != nil {
				panic(fmt.Sprintf("idlewave: noise rebuild failed after validation: %v", err))
			}
			return fn
		}
	}

	trackers, err := s.frontTrackers(topo, len(progs))
	if err != nil {
		return nil, nil, err
	}
	if len(trackers) > 0 {
		obs := make([]*wave.FrontTracker, 0, len(trackers))
		for _, src := range s.FrontSources {
			obs = append(obs, trackers[src])
		}
		cfg.OnWait = func(rank, step int, start, end sim.Time) {
			for _, t := range obs {
				t.Observe(rank, step, start, end)
			}
		}
	}
	res, err := mpisim.Run(cfg, progs)
	if err != nil {
		return nil, nil, err
	}
	return res, trackers, nil
}

// frontTrackers builds the incremental wave-front trackers for the
// spec's FrontSources, using the same hop metric trackFront would pick
// for a recorded trace.
func (s ScenarioSpec) frontTrackers(topo Topology, ranks int) (map[int]*wave.FrontTracker, error) {
	if len(s.FrontSources) == 0 {
		return nil, nil
	}
	if topo == nil {
		return nil, fmt.Errorf("FrontSources need a topology; process-style workloads have none")
	}
	threshold := sim.Time(s.Texec.Seconds()) / 2
	dt, directed := s.directedWave(topo)
	trackers := make(map[int]*wave.FrontTracker, len(s.FrontSources))
	for _, src := range s.FrontSources {
		if src < 0 || src >= ranks {
			return nil, fmt.Errorf("front source %d out of range [0,%d)", src, ranks)
		}
		if _, dup := trackers[src]; dup {
			continue
		}
		if directed {
			trackers[src] = wave.NewDirectedFrontTracker(dt, src, threshold)
		} else {
			trackers[src] = wave.NewFrontTracker(topo, src, threshold)
		}
	}
	return trackers, nil
}

// directedWave reports whether the scenario's idle wave travels only in
// the topology's send direction — an eager-protocol wave on a
// forward-only topology — in which case fronts must use the directed
// hop metric (the symmetric one would fold a wrapped front back onto
// itself).
func (s ScenarioSpec) directedWave(topo Topology) (topology.Directed, bool) {
	eager := s.MessageBytes <= s.Machine.EagerLimit
	if s.NetModel != nil {
		// An override model carries its own protocol switch, and a
		// hierarchical one may answer differently per rank pair (the
		// tiers can have different eager limits). The directed tracker
		// is only sound when every edge the wave travels is eager, so
		// probe the topology's actual send edges.
		eager = allEdgesEager(s.NetModel, topo, s.MessageBytes)
	}
	if eager && topology.ForwardOnly(topo) {
		if dt, ok := topo.(topology.Directed); ok {
			return dt, true
		}
	}
	return nil, false
}

// memoryBound reports whether any execution phase streams memory.
func memoryBound(progs []mpisim.Program) bool {
	for _, p := range progs {
		for _, op := range p {
			if c, ok := op.(mpisim.Compute); ok && c.MemBytes > 0 {
				return true
			}
		}
	}
	return false
}

// WaveSpeed measures the propagation speed of the idle wave emanating
// from the given source rank, in ranks per second on a chain and hops
// (hop-distance shells) per second on a grid or torus.
func (r *Result) WaveSpeed(source int) (float64, error) {
	if r.topo == nil {
		return 0, fmt.Errorf("idlewave: wave speed needs a topology; process-style results have none")
	}
	sp, err := wave.Speed(r.front(source))
	if err != nil {
		return 0, fmt.Errorf("idlewave: %w", err)
	}
	return sp.RanksPerSecond, nil
}

// WaveDecay measures the idle-wave decay rate in seconds of amplitude
// lost per rank travelled.
func (r *Result) WaveDecay(source int) (float64, error) {
	if r.topo == nil {
		return 0, fmt.Errorf("idlewave: wave decay needs a topology; process-style results have none")
	}
	d, err := wave.Decay(r.front(source))
	if err != nil {
		return 0, fmt.Errorf("idlewave: %w", err)
	}
	return float64(d.RatePerRank), nil
}

// ShellArrivals returns the wave front's first arrival time (seconds)
// per hop-distance shell around the source rank, indexed by hop count;
// shells the front never reached hold -1. On a healthy expanding wave
// the arrivals grow monotonically with hop distance — on a torus the
// shells are the surfaces of Manhattan balls. Process-style results
// carry no topology and yield nil.
func (r *Result) ShellArrivals(source int) []float64 {
	if r.topo == nil {
		return nil
	}
	arr := r.front(source).ShellArrivals()
	out := make([]float64, len(arr))
	for i, t := range arr {
		out[i] = float64(t)
	}
	return out
}

// front returns the tracked wave front emanating from the source rank,
// caching it so speed, decay and shell analytics on the same source
// share one TrackFront pass.
func (r *Result) front(source int) wave.Front {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fronts[source]; ok {
		return f
	}
	f := r.trackFront(source)
	if r.fronts == nil {
		r.fronts = make(map[int]wave.Front)
	}
	r.fronts[source] = f
	return f
}

// trackFront picks the right hop metric for the scenario's communication
// pattern: an eager-protocol wave travels only in the send direction,
// so on a unidirectional topology with wrap-around (ring or torus) the
// front is tracked with the directed metric — the symmetric metric
// would fold the wrapped front back onto itself. Every other pattern
// uses the topology's own symmetric hop metric. Runs without a recorded
// segment timeline fall back to the incrementally tracked FrontSources;
// a source that was neither recorded nor tracked yields an empty front
// (and the sample-count errors of Speed/Decay downstream).
func (r *Result) trackFront(source int) wave.Front {
	if r.spec.Trace != mpisim.TraceFull {
		if t, ok := r.streamFronts[source]; ok {
			return t.Front()
		}
		return wave.Front{Source: source}
	}
	threshold := sim.Time(r.spec.Texec.Seconds()) / 2
	if dt, ok := r.spec.directedWave(r.topo); ok {
		return wave.TrackFrontDirected(r.Traces, dt, source, threshold)
	}
	return wave.TrackFront(r.Traces, r.topo, source, threshold)
}

// allEdgesEager reports whether the cost model sends a message of the
// given size eagerly on every send edge of the topology.
func allEdgesEager(net NetModel, topo Topology, bytes int) bool {
	for i := 0; i < topo.Ranks(); i++ {
		for _, j := range topo.SendTargets(i) {
			if net.ProtocolFor(i, j, bytes) != netmodel.Eager {
				return false
			}
		}
	}
	return true
}

// MemBandwidth returns the achieved per-rank memory streaming bandwidth
// in bytes per second, averaged over ranks: the workload's per-step
// streamed volume divided by the rank's mean execution-phase time. It
// errors for workloads that are not memory-bound.
func (r *Result) MemBandwidth() (float64, error) {
	ms, ok := r.workload.(workload.MemStreamer)
	if !ok || ms.MemBytesPerStep() <= 0 {
		return 0, fmt.Errorf("idlewave: workload is not memory-bound")
	}
	steps := r.Traces.Steps()
	if steps == 0 {
		return 0, fmt.Errorf("idlewave: no completed steps to measure bandwidth over")
	}
	perStep := ms.MemBytesPerStep()
	var sum float64
	var n int
	for _, rt := range r.Traces.Ranks {
		exec := float64(rt.TotalBy(trace.Exec))
		if exec > 0 {
			sum += perStep * float64(steps) / exec
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("idlewave: no execution phases recorded")
	}
	return sum / float64(n), nil
}

// IdleByStep returns the summed wait time of all ranks per time step, in
// seconds — the aggregate "wave energy" profile over the run.
func (r *Result) IdleByStep() []float64 {
	totals := wave.TotalIdleByStep(r.Traces)
	out := make([]float64, len(totals))
	for i, t := range totals {
		out[i] = float64(t)
	}
	return out
}

// QuietStep returns the first step from which on no rank idles longer
// than half an execution phase, or -1 if waves are still alive at the
// end of the run.
func (r *Result) QuietStep() int {
	return wave.QuietStep(r.Traces, sim.Time(r.spec.Texec.Seconds())/2)
}

// RenderTimeline writes an ASCII rank-over-time timeline of the run
// ('.' execution, 'D' injected delay, '#' waiting, '~' noise).
func (r *Result) RenderTimeline(w io.Writer, width int) error {
	return viz.Timeline(w, r.Traces, viz.TimelineOptions{Width: width})
}

// TotalIdle returns the summed wait time of all ranks in seconds.
func (r *Result) TotalIdle() float64 {
	var total sim.Time
	for _, rt := range r.Traces.Ranks {
		total += rt.TotalBy(trace.Wait)
	}
	return float64(total)
}

// PredictSpeed is Eq. 2 of the paper: the silent-system wave speed in
// ranks per second for the given parameters.
func PredictSpeed(bidirectional, rendezvous bool, d int, texec, tcomm time.Duration) float64 {
	return wave.SilentSpeed(wave.Sigma(bidirectional, rendezvous), d,
		sim.Time(texec.Seconds()), sim.Time(tcomm.Seconds()))
}

// Comm is the process-style programming handle: write each rank as an
// ordinary Go function using Compute/Isend/Irecv/Waitall and the
// collective operations Barrier, Allreduce and Bcast.
type Comm = proc.Comm

// RunProcesses executes fn as the program of every rank and returns the
// resulting traces wrapped in a Result. It is sugar for Simulate with a
// ProcessWorkload: to gain the topology-bound analytics (WaveSpeed,
// WaveDecay, ShellArrivals) on a process-style run, call Simulate with
// a ProcessWorkload that declares its Topo. Compute-bound programs run
// on the machine's flat network as before; programs with memory-bound
// phases (Comm.ComputeMem) — which previously errored here for lack of
// a socket configuration — now run with compact placement and shared
// socket memory bandwidth, like every other memory-bound workload.
func RunProcesses(m Machine, ranks int, seed uint64, fn func(*Comm)) (*Result, error) {
	return Simulate(ScenarioSpec{
		Machine:  m,
		Workload: ProcessWorkload{Ranks: ranks, Fn: fn},
		Seed:     seed,
	})
}

// Experiments lists the named paper-reproduction experiments.
func Experiments() []string { return core.Experiments() }

// RunExperiment executes a named reproduction experiment ("fig1".."fig9",
// "eq2"). quick shrinks problem sizes for fast runs.
func RunExperiment(id string, seed uint64, quick bool) (string, error) {
	rep, err := core.Run(id, core.Options{Seed: seed, Quick: quick})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}
