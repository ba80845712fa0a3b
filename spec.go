package idlewave

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/netmodel"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Spec is the serializable wire form of a sweep: a base scenario plus
// axes and metric names, every component spelled in the same flag
// syntaxes the CLIs accept ("chain:64", "emmy:lat=5us", "exp:0.5").
// Spec marshals to JSON directly (json.Marshal / Spec.Encode); ParseSpec
// reads one back; SweepFromSpec turns it into a runnable SweepSpec.
// Spec.Hash() is the content address the sweep service caches results
// under — the determinism contract (fixed seed ⇒ byte-identical output
// at any worker or shard count) makes that cache exact.
type Spec = spec.Sweep

// SpecScenario is the serializable form of ScenarioSpec; see
// ScenarioFromSpec.
type SpecScenario = spec.Scenario

// SpecAxis is one serializable sweep dimension: a kind (see
// spec.AxisKinds) plus its value spellings.
type SpecAxis = spec.Axis

// SpecDelay is one serializable injected delay.
type SpecDelay = spec.Delay

// ParseSpec decodes a JSON sweep spec (unknown fields are rejected).
// The result is not yet validated against the simulator — Canonical()
// checks the component spellings, SweepFromSpec builds the runnable
// sweep.
func ParseSpec(data []byte) (*Spec, error) { return spec.Decode(data) }

// MetricByName resolves a metric column name ("speed", "decay", "idle",
// "quiet", "runtime", "events", "membw", "steptime") to the Metric it
// denotes. source is the rank whose idle wave the wave metrics track —
// conventionally the rank receiving the injected delay.
func MetricByName(name string, source int) (Metric, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "speed":
		return MetricWaveSpeed(source), nil
	case "decay":
		return MetricWaveDecay(source), nil
	case "idle":
		return MetricTotalIdle(), nil
	case "quiet":
		return MetricQuietStep(), nil
	case "runtime":
		return MetricRuntime(), nil
	case "events":
		return MetricEvents(), nil
	case "membw":
		return MetricMemBandwidth(), nil
	case "steptime":
		return MetricStepTime(), nil
	}
	return Metric{}, fmt.Errorf("idlewave: unknown metric %q (want %s)", name, strings.Join(spec.MetricNames, ", "))
}

// ScenarioFromSpec converts a wire scenario into a runnable
// ScenarioSpec, parsing every component string through the public
// parsers. A workload spec absorbs the scenario's Steps as its default
// step count (matching the CLIs' -steps threading; Canonical folds it
// in), since a runnable spec with a Workload carries the step count
// inside the workload.
func ScenarioFromSpec(ws SpecScenario) (ScenarioSpec, error) {
	c, err := ws.Canonical()
	if err != nil {
		return ScenarioSpec{}, err
	}
	out := ScenarioSpec{
		Ranks:            c.Ranks,
		Steps:            c.Steps,
		MessageBytes:     c.MessageBytes,
		NeighborDistance: c.NeighborDistance,
		NoiseLevel:       c.NoiseLevel,
		Seed:             c.Seed,
		Shards:           c.Shards,
		FrontSources:     append([]int(nil), c.FrontSources...),
	}
	if c.Machine != "" {
		if out.Machine, err = ParseMachine(c.Machine); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Noise != "" {
		if out.Noise, err = ParseNoise(c.Noise); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.NetModel != "" {
		if out.NetModel, err = ParseNetModel(c.NetModel); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Topology != "" {
		if out.Topology, err = ParseTopology(c.Topology); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Workload != "" {
		if out.Workload, err = workload.Parse(c.Workload); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Texec != "" {
		d, err := time.ParseDuration(c.Texec)
		if err != nil {
			return ScenarioSpec{}, fmt.Errorf("idlewave: texec: %w", err)
		}
		out.Texec = d
	}
	switch c.Direction {
	case "uni":
		out.Direction = Unidirectional
	case "bi":
		out.Direction = Bidirectional
	}
	if c.Boundary == "periodic" {
		out.Boundary = Periodic
	}
	switch c.Trace {
	case "steps":
		out.Trace = TraceSteps
	case "off":
		out.Trace = TraceOff
	}
	for _, d := range c.Delay {
		dur, err := time.ParseDuration(d.Duration)
		if err != nil {
			return ScenarioSpec{}, fmt.Errorf("idlewave: delay: %w", err)
		}
		out.Delay = append(out.Delay, Inject(d.Rank, d.Step, dur))
	}
	return out, nil
}

// SweepFromSpec converts a wire sweep into a runnable SweepSpec using
// the same axis builders the CLIs use, so a spec submitted to the sweep
// service produces byte-identical output to the equivalent cmd/sweep
// flags. A spec with no axes becomes a single-point sweep over the base
// seed; wave metrics track the first injected delay's rank (rank 0 when
// no delay is injected).
func SweepFromSpec(ws *Spec) (SweepSpec, error) {
	var zero SweepSpec
	c, err := ws.Canonical()
	if err != nil {
		return zero, err
	}
	base, err := ScenarioFromSpec(c.Base)
	if err != nil {
		return zero, err
	}
	axes := make([]SweepAxis, 0, len(c.Axes))
	for i, a := range c.Axes {
		ax, err := axisFromSpec(a)
		if err != nil {
			return zero, fmt.Errorf("idlewave: axis %d: %w", i, err)
		}
		axes = append(axes, ax)
	}
	if len(axes) == 0 {
		axes = append(axes, SeedAxis(c.Base.Seed))
	}
	source := 0
	if len(c.Base.Delay) > 0 {
		source = c.Base.Delay[0].Rank
	}
	metrics := make([]Metric, len(c.Metrics))
	for i, m := range c.Metrics {
		if metrics[i], err = MetricByName(m, source); err != nil {
			return zero, err
		}
	}
	return SweepSpec{Base: base, Axes: axes, Metrics: metrics, Workers: c.Workers}, nil
}

// axisFromSpec builds the SweepAxis for one wire axis, delegating to
// the public axis builders so labels and semantics match sweeps built
// in code or from CLI flags.
func axisFromSpec(a SpecAxis) (SweepAxis, error) {
	var zero SweepAxis
	vals := a.Values
	switch a.Kind {
	case "noise":
		levels := make([]float64, len(vals))
		for i, v := range vals {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return zero, fmt.Errorf("noise level %q: %w", v, err)
			}
			levels[i] = f
		}
		return NoiseAxis(levels...), nil
	case "noiseprofile":
		ps := make([]NoiseProfile, len(vals))
		for i, v := range vals {
			p, err := ParseNoise(v)
			if err != nil {
				return zero, err
			}
			ps[i] = p
		}
		return NoiseProfileAxis(ps...), nil
	case "bytes":
		ns, err := atoiAll(vals)
		if err != nil {
			return zero, err
		}
		return MessageAxis(ns...), nil
	case "d":
		ns, err := atoiAll(vals)
		if err != nil {
			return zero, err
		}
		return DistanceAxis(ns...), nil
	case "direction":
		dirs := make([]Direction, len(vals))
		for i, v := range vals {
			switch v {
			case "uni":
				dirs[i] = Unidirectional
			case "bi":
				dirs[i] = Bidirectional
			default:
				return zero, fmt.Errorf("bad direction %q (want uni or bi)", v)
			}
		}
		return DirectionAxis(dirs...), nil
	case "machine":
		ms := make([]Machine, len(vals))
		for i, v := range vals {
			m, err := ParseMachine(v)
			if err != nil {
				return zero, err
			}
			ms[i] = m
		}
		return MachineAxis(ms...), nil
	case "ranks":
		ns, err := atoiAll(vals)
		if err != nil {
			return zero, err
		}
		return RanksAxis(ns...), nil
	case "seed":
		seeds := make([]uint64, len(vals))
		for i, v := range vals {
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return zero, fmt.Errorf("seed %q: %w", v, err)
			}
			seeds[i] = s
		}
		return SeedAxis(seeds...), nil
	case "topology":
		topos := make([]Topology, len(vals))
		for i, v := range vals {
			t, err := ParseTopology(v)
			if err != nil {
				return zero, err
			}
			topos[i] = t
		}
		return TopologyAxis(topos...), nil
	case "workload":
		wls := make([]Workload, len(vals))
		for i, v := range vals {
			w, err := workload.Parse(v)
			if err != nil {
				return zero, err
			}
			wls[i] = w
		}
		return WorkloadAxis(wls...), nil
	case "netmodel":
		ms := make([]NetModel, len(vals))
		for i, v := range vals {
			m, err := ParseNetModel(v)
			if err != nil {
				return zero, err
			}
			ms[i] = m
		}
		return NetModelAxis(ms...), nil
	case "latency":
		ls := make([]time.Duration, len(vals))
		for i, v := range vals {
			d, err := time.ParseDuration(v)
			if err != nil {
				return zero, fmt.Errorf("latency %q: %w", v, err)
			}
			ls[i] = d
		}
		return LatencyAxis(ls...), nil
	case "bandwidth":
		bws := make([]float64, len(vals))
		for i, v := range vals {
			bw, err := netmodel.ParseRate(v, "bandwidth")
			if err != nil {
				return zero, err
			}
			bws[i] = bw
		}
		return BandwidthAxis(bws...), nil
	case "distribution":
		ds := make([]Distribution, len(vals))
		for i, v := range vals {
			d, err := ParseDistribution(v)
			if err != nil {
				return zero, err
			}
			ds[i] = d
		}
		return DistributionAxis(ds...), nil
	}
	return zero, fmt.Errorf("unknown axis kind %q", a.Kind)
}

func atoiAll(vals []string) ([]int, error) {
	out := make([]int, len(vals))
	for i, v := range vals {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", v)
		}
		out[i] = n
	}
	return out, nil
}
