package genload

import (
	"fmt"
	"strings"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Part is the workload contract genload programs against — the same
// contract the higher workload package exposes: workload.Workload is a
// type alias of this interface, so values flow between the packages
// without adapters and methods returning Part satisfy workload's
// capability interfaces, while the import stays one-way
// (workload → genload).
type Part interface {
	Validate() error
	Topology() (topology.Topology, error)
	Delays() []noise.Injection
	Programs() ([]mpisim.Program, error)
}

// DefaultSteps mirrors workload.DefaultSteps for specs without a steps
// option (the two constants are pinned equal by a test).
const DefaultSteps = 24

// DefaultBytes is the per-neighbor message size a generator spec
// defaults to, matching the bulk-synchronous default.
const DefaultBytes = 8192

// streamPhase/streamDelay index the per-rank substreams a GenWorkload
// derives from its seed: one stream for phase-time draws, an
// independent one for the delay-injection process, so changing the
// injection parameters never perturbs the phase draws.
const (
	streamPhase = 0
	streamDelay = 1
)

// maxDelayEventsPerStep bounds the injection-process expansion: a rank
// draws at most this many delay events per program step on average
// before the expansion stops, so a mis-parameterized inter-arrival
// distribution (mean far below the phase time) yields a huge but
// bounded program instead of an unbounded loop.
const maxDelayEventsPerStep = 64

// GenWorkload is a stochastic bulk-synchronous workload: per (rank,
// step) the execution-phase duration is drawn from Phase, and an
// optional renewal process (inter-arrival gaps from Every, magnitudes
// from Delay) injects delays along each rank's nominal timeline. All
// draws expand into an ordinary per-rank program at Programs() time
// from the fixed Seed, through split streams keyed by (Seed, rank), so
// simulation results are byte-identical at any worker or shard count
// and independent of which other ranks exist.
type GenWorkload struct {
	// Topo is the communication structure; nil resolves to the default
	// open bidirectional d=1 chain on Ranks ranks.
	Topo topology.Topology
	// Ranks is the rank count when Topo is nil.
	Ranks int
	// Steps is the number of compute-communicate steps.
	Steps int
	// Phase draws each (rank, step) execution-phase duration.
	Phase Distribution
	// Bytes is the per-neighbor message size.
	Bytes int
	// Delay and Every, both set, add a stochastic delay-injection
	// process per rank: gaps between events are drawn from Every over
	// the rank's nominal timeline, each event's magnitude from Delay.
	// Both nil disables the process.
	Delay Distribution
	Every Distribution
	// Seed fixes every draw.
	Seed uint64
	// Injections are extra one-off delays on top of the process.
	Injections []noise.Injection
}

// Validate checks the generator parameters.
func (g GenWorkload) Validate() error {
	topo, err := g.resolveTopo()
	if err != nil {
		return err
	}
	if g.Steps <= 0 {
		return fmt.Errorf("genload: need positive step count, got %d", g.Steps)
	}
	if g.Phase == nil {
		return fmt.Errorf("genload: generator needs a phase distribution")
	}
	if err := g.Phase.Validate(); err != nil {
		return err
	}
	if !(g.Phase.Mean() > 0) || g.Phase.Mean() > sim.Time(1e6) {
		return fmt.Errorf("genload: phase distribution %v needs a positive finite mean", g.Phase)
	}
	if g.Bytes <= 0 {
		return fmt.Errorf("genload: need positive message size, got %d", g.Bytes)
	}
	if (g.Delay == nil) != (g.Every == nil) {
		return fmt.Errorf("genload: delay and every distributions come as a pair; set both or neither")
	}
	if g.Delay != nil {
		if err := g.Delay.Validate(); err != nil {
			return err
		}
		if err := g.Every.Validate(); err != nil {
			return err
		}
		if !(g.Every.Mean() > 0) {
			return fmt.Errorf("genload: every distribution %v needs a positive mean", g.Every)
		}
	}
	for _, inj := range g.Injections {
		if inj.Rank < 0 || inj.Rank >= topo.Ranks() {
			return fmt.Errorf("genload: injection rank %d out of range", inj.Rank)
		}
		if inj.Step < 0 || inj.Step >= g.Steps {
			return fmt.Errorf("genload: injection step %d out of range", inj.Step)
		}
		if !sim.Positive(inj.Duration) {
			return fmt.Errorf("genload: non-positive or non-finite injection duration %v", inj.Duration)
		}
	}
	return nil
}

// resolveTopo returns the topology the generator runs on, building the
// default open bidirectional chain when none is set.
func (g GenWorkload) resolveTopo() (topology.Topology, error) {
	if g.Topo != nil {
		if g.Ranks != 0 && g.Ranks != g.Topo.Ranks() {
			return nil, fmt.Errorf("genload: topology %v has %d ranks, generator declares %d",
				g.Topo, g.Topo.Ranks(), g.Ranks)
		}
		return g.Topo, nil
	}
	c, err := topology.NewChain(g.Ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		return nil, fmt.Errorf("genload: %w", err)
	}
	return c, nil
}

// Topology returns the resolved communication structure.
func (g GenWorkload) Topology() (topology.Topology, error) { return g.resolveTopo() }

// Delays lists the one-off injected delays (the stochastic process is
// part of the generated programs, not the delay list).
func (g GenWorkload) Delays() []noise.Injection { return g.Injections }

// PhaseHint returns the phase distribution's mean, parameterizing the
// idle-wave detection threshold.
func (g GenWorkload) PhaseHint() sim.Time {
	if g.Phase == nil {
		return 0
	}
	return g.Phase.Mean()
}

// MessageHint returns the per-neighbor message size.
func (g GenWorkload) MessageHint() int { return g.Bytes }

// WithTopology returns a copy bound to the topology.
func (g GenWorkload) WithTopology(t topology.Topology) Part {
	g.Topo = t
	g.Ranks = 0
	return g
}

// WithInjections returns a copy carrying the extra one-off delays.
func (g GenWorkload) WithInjections(inj ...noise.Injection) Part {
	out := make([]noise.Injection, 0, len(g.Injections)+len(inj))
	out = append(out, g.Injections...)
	g.Injections = append(out, inj...)
	return g
}

// WithPhase returns a copy drawing phase times from the distribution —
// the hook the distribution sweep axis applies.
func (g GenWorkload) WithPhase(d Distribution) Part {
	g.Phase = d
	return g
}

// String renders the generator in the Parse flag syntax
// ("gen:18:steps=24:phase=exp/3ms:seed=7"). Steps, phase and seed are
// always rendered — they parameterize the draws, so sweep labels and
// content hashes must carry them — while bytes and the injection pair
// appear when set. The rendering re-parses to an equal value.
func (g GenWorkload) String() string {
	var b strings.Builder
	b.WriteString("gen:")
	b.WriteString(ShapeLabel(g.Topo, g.Ranks))
	fmt.Fprintf(&b, ":steps=%d", g.Steps)
	if g.Phase != nil {
		b.WriteString(":phase=")
		b.WriteString(EmbedSpec(g.Phase))
	}
	if g.Bytes > 0 && g.Bytes != DefaultBytes {
		fmt.Fprintf(&b, ":bytes=%d", g.Bytes)
	}
	if g.Delay != nil && g.Every != nil {
		b.WriteString(":delay=")
		b.WriteString(EmbedSpec(g.Delay))
		b.WriteString(":every=")
		b.WriteString(EmbedSpec(g.Every))
	}
	fmt.Fprintf(&b, ":seed=%d", g.Seed)
	return b.String()
}

// Programs expands the draws into one ordinary program per rank: per
// step an optional aggregated Delay op (process events plus one-off
// injections), a Compute op with the drawn phase duration, the
// topology's neighbor exchange, and a Waitall.
func (g GenWorkload) Programs() ([]mpisim.Program, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	topo, err := g.resolveTopo()
	if err != nil {
		return nil, err
	}
	return BulkLoop{
		Topo: topo, Steps: g.Steps, Bytes: g.Bytes, Injections: g.Injections, Fill: g.expandRank,
	}.Programs(), nil
}

// expandRank draws one rank's per-step phase durations and aggregated
// process delays into the given rows (delays arrives zeroed). The
// rank's nominal timeline — the running sum of its own phase draws —
// anchors temporal modulation and places the injection process's
// arrivals into steps.
func (g GenWorkload) expandRank(rank int, phases, delays []sim.Time) {
	pr := rng.New(substreamSeed(g.Seed, rank, streamPhase))
	var total sim.Time
	for step := range phases {
		d := g.Phase.Sample(pr, total)
		if d < 0 {
			d = 0
		}
		phases[step] = d
		total += d
	}

	if g.Delay == nil || total <= 0 {
		return
	}
	dr := rng.New(substreamSeed(g.Seed, rank, streamDelay))
	maxEvents := maxDelayEventsPerStep * g.Steps
	at := g.Every.Sample(dr, 0)
	step, next := 0, phases[0] // next is the nominal start of step+1
	for ev := 0; ev < maxEvents && at < total; ev++ {
		for step+1 < g.Steps && at >= next {
			step++
			next += phases[step]
		}
		if d := g.Delay.Sample(dr, at); d > 0 {
			delays[step] += d
		}
		gap := g.Every.Sample(dr, at)
		if gap <= 0 {
			// A degenerate draw must still advance time; resample cost
			// is bounded by maxEvents either way.
			gap = sim.Time(1e-12)
		}
		at += gap
	}
}

// substreamSeed derives the seed of one (rank, stream) substream,
// following the per-rank derivation idiom of internal/noise: the
// substream depends only on (seed, rank, stream), never on which other
// ranks exist or when they run.
func substreamSeed(seed uint64, rank, stream int) uint64 {
	base := rng.New(seed).State()[0]
	return base ^ (uint64(rank)+1)*0x9e3779b97f4a7c15 ^ (uint64(stream)+1)*0xbf58476d1ce4e5b9
}

// ShapeLabel renders a workload's decomposition in the flag syntax: the
// rank count for the default decomposition (nil topology), NxM extents
// for a plain torus (the shape the "NxM" spelling builds), the
// topology's own spec otherwise (which does not re-parse as a workload
// shape).
func ShapeLabel(topo topology.Topology, ranks int) string {
	if topo == nil {
		return fmt.Sprint(ranks)
	}
	if g, ok := topo.(topology.Grid); ok && isPlainTorus(g) {
		parts := make([]string, len(g.Extents))
		for i, e := range g.Extents {
			parts[i] = fmt.Sprint(e)
		}
		return strings.Join(parts, "x")
	}
	return topo.String()
}

// isPlainTorus reports whether the grid is the shape the "NxM" spelling
// produces: d=1, bidirectional, fully periodic.
func isPlainTorus(g topology.Grid) bool {
	if g.D != 1 || g.Dir != topology.Bidirectional {
		return false
	}
	for _, b := range g.Bounds {
		if b != topology.Periodic {
			return false
		}
	}
	return len(g.Bounds) > 0
}
