// Package spec is the wire form of the public ScenarioSpec/SweepSpec
// types: a fully serializable superset whose component fields are the
// flag-syntax strings the Parse*/String() pairs already round-trip
// (topology.Parse, workload.Parse, noise.Parse, cluster.ParseMachine,
// netmodel.Parse). JSON is the native encoding (the field tags double
// as the YAML schema for external unmarshalers); Canonical() normalizes
// a spec so that equivalent spellings hash identically, and Hash()
// derives the content address the sweep service's result cache is
// keyed by.
//
// The package deliberately does not import the root idlewave package:
// the root re-exports these types and owns the wire -> runnable
// conversion (idlewave.ParseSpec, SweepFromSpec), so the codec stays
// usable from internal services without an import cycle.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/genload"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scenario is the serializable form of idlewave.ScenarioSpec. Component
// fields hold flag-syntax strings ("triad:18", "emmy:lat=5us",
// "exp:0.5+periodic:500us@10ms"); zero values mean "use the scenario
// defaults", exactly as in the runnable spec.
type Scenario struct {
	// Workload selects the kernel in the workload.Parse syntax. Empty
	// builds the default bulk-synchronous chain kernel from the scalar
	// fields below.
	Workload string `json:"workload,omitempty"`
	// Topology selects the communication structure in the
	// topology.Parse syntax ("chain:64", "torus:16x16").
	Topology string `json:"topology,omitempty"`
	// Machine names or describes the machine in the
	// cluster.ParseMachine syntax ("emmy", "meggie:noise=0",
	// "custom:lat=1us:bw=10GB/s:...").
	Machine string `json:"machine,omitempty"`
	// Noise overrides the injected-noise profile in the noise.Parse
	// syntax; mutually exclusive with a non-zero NoiseLevel.
	Noise string `json:"noise,omitempty"`
	// NetModel overrides the communication cost model in the
	// netmodel.Parse syntax ("hockney:lat=2us:bw=3GB/s:eager=131072").
	NetModel string `json:"netmodel,omitempty"`
	// Ranks, Steps and the chain-shape scalars mirror the runnable
	// spec's fields (zero = default). With a workload (in the base or
	// on an axis), Steps is the workload's default step count, and
	// Canonical folds it into the workload spelling.
	Ranks            int     `json:"ranks,omitempty"`
	Steps            int     `json:"steps,omitempty"`
	Texec            string  `json:"texec,omitempty"` // duration, "3ms"
	MessageBytes     int     `json:"message_bytes,omitempty"`
	NeighborDistance int     `json:"d,omitempty"`
	Direction        string  `json:"direction,omitempty"` // "uni" | "bi"
	Boundary         string  `json:"boundary,omitempty"`  // "open" | "periodic"
	Delay            []Delay `json:"delay,omitempty"`
	NoiseLevel       float64 `json:"noise_level,omitempty"`
	Seed             uint64  `json:"seed,omitempty"`
	Trace            string  `json:"trace,omitempty"` // "full" | "steps" | "off"
	FrontSources     []int   `json:"front_sources,omitempty"`
	// Shards requests parallel-DES execution. Execution configuration
	// only: results are byte-identical at any shard count, so Shards is
	// excluded from the content hash.
	Shards int `json:"shards,omitempty"`
}

// Delay is one injected one-off delay.
type Delay struct {
	Rank     int    `json:"rank"`
	Step     int    `json:"step"`
	Duration string `json:"duration"` // "1.5ms"
}

// Axis is one sweep dimension: a kind naming which scenario knob varies
// and the list of values it takes, each in that knob's flag spelling.
type Axis struct {
	// Kind is one of AxisKinds: "noise" (E levels), "noiseprofile",
	// "bytes", "d", "direction", "machine", "ranks", "seed",
	// "topology", "workload", "netmodel", "latency", "bandwidth",
	// "distribution" (phase distributions for a gen workload base).
	Kind   string   `json:"kind"`
	Values []string `json:"values"`
}

// Sweep is the serializable form of idlewave.SweepSpec: a base scenario
// plus the axes swept over it and the metric columns to record.
type Sweep struct {
	Base Scenario `json:"base"`
	// Axes default to a single-point sweep of the base scenario.
	Axes []Axis `json:"axes,omitempty"`
	// Metrics lists result columns by name (see MetricNames); empty
	// selects the default set "speed,decay,idle,runtime".
	Metrics []string `json:"metrics,omitempty"`
	// Workers caps sweep concurrency. Execution configuration only:
	// results are byte-identical at any worker count, so Workers is
	// excluded from the content hash.
	Workers int `json:"workers,omitempty"`
	// Deadline bounds the job's wall-clock run time when the sweep is
	// executed by the sweep service ("2m30s"; empty uses the server's
	// default, if any). Execution configuration only: a deadline changes
	// whether a job finishes, never what a finished job computed, so it
	// is excluded from the content hash like Workers and Shards.
	Deadline string `json:"deadline,omitempty"`
}

// AxisKinds lists the axis kinds the public SweepFromSpec builder
// understands, in canonical spelling.
var AxisKinds = []string{
	"noise", "noiseprofile", "bytes", "d", "direction", "machine",
	"ranks", "seed", "topology", "workload", "netmodel", "latency",
	"bandwidth", "distribution",
}

// MetricNames lists the metric columns a spec may request, in canonical
// spelling. The public idlewave.MetricByName resolves each of them; a
// root-package test pins the two lists together.
var MetricNames = []string{
	"speed", "decay", "idle", "quiet", "runtime", "events", "membw", "steptime",
}

// DefaultMetrics is the metric set an empty Metrics list selects.
var DefaultMetrics = []string{"speed", "decay", "idle", "runtime"}

// Decode reads a JSON spec, rejecting unknown fields so schema typos
// fail loudly instead of silently sweeping the wrong knob.
func Decode(data []byte) (*Sweep, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Sweep
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after spec document")
	}
	return &s, nil
}

// Encode renders the spec as indented JSON.
func (s *Sweep) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Canonical validates the spec and normalizes every component string to
// its canonical spelling (parse, then re-render), so that equivalent
// spellings of the same sweep produce identical encodings and therefore
// identical content hashes. Machine and net-model strings are validated
// but keep their (trimmed) user spelling: their canonical renderings
// round bandwidths to a 4-digit mantissa, so re-rendering could change
// the value. A differently spelled machine therefore hashes differently
// — a cache miss, never a wrong result.
func (s Sweep) Canonical() (Sweep, error) {
	out := s
	base, err := s.Base.Canonical()
	if err != nil {
		return Sweep{}, err
	}
	out.Base = base

	out.Axes = make([]Axis, len(s.Axes))
	for i, a := range s.Axes {
		ca, err := a.canonical(s.Base.Steps)
		if err != nil {
			return Sweep{}, fmt.Errorf("spec: axis %d: %w", i, err)
		}
		out.Axes[i] = ca
		if ca.Kind == "workload" {
			out.Base.Steps = 0 // every point's workload carries it now
		}
	}

	metrics := s.Metrics
	if len(metrics) == 0 {
		metrics = DefaultMetrics
	}
	out.Metrics = make([]string, len(metrics))
	for i, m := range metrics {
		name := strings.ToLower(strings.TrimSpace(m))
		if !contains(MetricNames, name) {
			return Sweep{}, fmt.Errorf("spec: unknown metric %q (want one of %s)", m, strings.Join(MetricNames, ", "))
		}
		out.Metrics[i] = name
	}
	if s.Workers < 0 {
		return Sweep{}, fmt.Errorf("spec: negative workers %d", s.Workers)
	}
	if out.Deadline, err = canonOptionalDuration(s.Deadline); err != nil {
		return Sweep{}, fmt.Errorf("spec: deadline: %w", err)
	}
	return out, nil
}

// Canonical validates and normalizes a scenario; see Sweep.Canonical.
// A workload absorbs Steps as its default step count, so the canonical
// form of a workload scenario has Steps zero.
func (s Scenario) Canonical() (Scenario, error) {
	out := s
	var err error
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ranks", s.Ranks}, {"steps", s.Steps}, {"message_bytes", s.MessageBytes},
		{"d", s.NeighborDistance}, {"shards", s.Shards},
	} {
		if f.v < 0 {
			return Scenario{}, fmt.Errorf("spec: negative %s %d", f.name, f.v)
		}
	}
	if out.Workload, err = canonWorkload(s.Workload, s.Steps); err != nil {
		return Scenario{}, fmt.Errorf("spec: workload: %w", err)
	}
	if out.Workload != "" {
		out.Steps = 0
	}
	if out.Topology, err = canonTopology(s.Topology); err != nil {
		return Scenario{}, fmt.Errorf("spec: topology: %w", err)
	}
	if out.Machine, err = canonMachine(s.Machine); err != nil {
		return Scenario{}, fmt.Errorf("spec: machine: %w", err)
	}
	if out.Noise, err = canonNoise(s.Noise); err != nil {
		return Scenario{}, fmt.Errorf("spec: noise: %w", err)
	}
	if out.NetModel, err = canonNetModel(s.NetModel); err != nil {
		return Scenario{}, fmt.Errorf("spec: netmodel: %w", err)
	}
	if out.Texec, err = canonOptionalDuration(s.Texec); err != nil {
		return Scenario{}, fmt.Errorf("spec: texec: %w", err)
	}
	if out.Direction, err = canonDirection(s.Direction); err != nil {
		return Scenario{}, err
	}
	if out.Boundary, err = canonBoundary(s.Boundary); err != nil {
		return Scenario{}, err
	}
	if out.Trace, err = canonTrace(s.Trace); err != nil {
		return Scenario{}, err
	}
	if !(s.NoiseLevel >= 0) || math.IsInf(s.NoiseLevel, 0) {
		return Scenario{}, fmt.Errorf("spec: noise_level %g is not a finite non-negative number", s.NoiseLevel)
	}
	if s.Noise != "" && s.NoiseLevel != 0 {
		return Scenario{}, fmt.Errorf("spec: noise and noise_level are mutually exclusive")
	}
	out.Delay = make([]Delay, len(s.Delay))
	for i, d := range s.Delay {
		if d.Rank < 0 || d.Step < 0 {
			return Scenario{}, fmt.Errorf("spec: delay %d: negative rank or step", i)
		}
		dur, err := canonDuration(d.Duration)
		if err != nil {
			return Scenario{}, fmt.Errorf("spec: delay %d: %w", i, err)
		}
		out.Delay[i] = Delay{Rank: d.Rank, Step: d.Step, Duration: dur}
	}
	if len(out.Delay) == 0 {
		out.Delay = nil
	}
	out.FrontSources = append([]int(nil), s.FrontSources...)
	for _, r := range out.FrontSources {
		if r < 0 {
			return Scenario{}, fmt.Errorf("spec: negative front source rank %d", r)
		}
	}
	return out, nil
}

// Hash returns the spec's content address: the SHA-256 of the canonical
// JSON encoding, in hex. Workers and Shards are zeroed first — the
// determinism contract makes results byte-identical at any worker or
// shard count, so execution configuration must not split the cache.
func (s Sweep) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	c.Workers = 0
	c.Base.Shards = 0
	c.Deadline = ""
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Points returns the number of grid points the sweep evaluates (the
// product of the axis value counts; 1 with no axes).
func (s Sweep) Points() (int, error) {
	n := 1
	for i, a := range s.Axes {
		if len(a.Values) == 0 {
			return 0, fmt.Errorf("spec: axis %d (%s) has no values", i, a.Kind)
		}
		n *= len(a.Values)
	}
	return n, nil
}

// Slice returns the 1-point sub-sweep at the given grid coordinates:
// every axis narrowed to its coords[i]-th value. Running the slice
// through the same sweep pipeline yields the exact point row of the
// full sweep — the basis of per-point result caching.
func (s Sweep) Slice(coords []int) (Sweep, error) {
	if len(coords) != len(s.Axes) {
		return Sweep{}, fmt.Errorf("spec: %d coordinates for %d axes", len(coords), len(s.Axes))
	}
	out := s
	out.Axes = make([]Axis, len(s.Axes))
	for i, a := range s.Axes {
		if coords[i] < 0 || coords[i] >= len(a.Values) {
			return Sweep{}, fmt.Errorf("spec: coordinate %d out of range for axis %s (%d values)", coords[i], a.Kind, len(a.Values))
		}
		out.Axes[i] = Axis{Kind: a.Kind, Values: []string{a.Values[coords[i]]}}
	}
	return out, nil
}

// canonical validates an axis and normalizes its values; steps is the
// base scenario's step count, the default of workload values.
func (a Axis) canonical(steps int) (Axis, error) {
	kind := strings.ToLower(strings.TrimSpace(a.Kind))
	canon, ok := axisValueCanon[kind]
	if !ok {
		return Axis{}, fmt.Errorf("unknown kind %q (want one of %s)", a.Kind, strings.Join(AxisKinds, ", "))
	}
	if kind == "workload" {
		canon = mustValue(func(v string) (string, error) { return canonWorkload(v, steps) })
	}
	if len(a.Values) == 0 {
		return Axis{}, fmt.Errorf("kind %q has no values", kind)
	}
	out := Axis{Kind: kind, Values: make([]string, len(a.Values))}
	for i, v := range a.Values {
		cv, err := canon(v)
		if err != nil {
			return Axis{}, fmt.Errorf("value %d: %w", i, err)
		}
		out.Values[i] = cv
	}
	return out, nil
}

// axisValueCanon maps each axis kind to the canonicalizer for its value
// spellings.
var axisValueCanon = map[string]func(string) (string, error){
	"noise":        canonFloat,
	"noiseprofile": mustValue(canonNoise),
	"bytes":        canonPosInt,
	"d":            canonPosInt,
	"direction":    mustValue(canonDirection),
	"machine":      mustValue(canonMachine),
	"ranks":        canonPosInt,
	"seed":         canonUint,
	"topology":     mustValue(canonTopology),
	"workload":     nil, // needs the base steps; see Axis.canonical
	"netmodel":     mustValue(canonNetModel),
	"latency":      canonDuration,
	"bandwidth":    canonRate,
	"distribution": mustValue(canonDistribution),
}

// mustValue adapts an optional-field canonicalizer (empty allowed) into
// an axis-value canonicalizer (empty is an error).
func mustValue(fn func(string) (string, error)) func(string) (string, error) {
	return func(v string) (string, error) {
		if strings.TrimSpace(v) == "" {
			return "", fmt.Errorf("empty value")
		}
		return fn(v)
	}
}

func canonTopology(v string) (string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", nil
	}
	t, err := topology.Parse(v)
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// canonWorkload resolves a workload spelling with steps (0 = the
// workload default) as its default step count and re-renders it. A
// rendering omits only workload.DefaultSteps, so the canonical form
// parses back to the same workload under the default and carries every
// other step count itself, stated or defaulted.
func canonWorkload(v string, steps int) (string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", nil
	}
	w, err := workload.ParseWith(v, workload.Defaults{Steps: steps})
	if err != nil {
		return "", err
	}
	return fmt.Sprint(w), nil
}

// canonDistribution normalizes a ParseDistribution spelling (so
// "gamma:scale=1ms:shape=2" and "gamma:shape=2:scale=1ms" hash
// identically).
func canonDistribution(v string) (string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", nil
	}
	d, err := genload.ParseDistribution(v)
	if err != nil {
		return "", err
	}
	return d.String(), nil
}

func canonNoise(v string) (string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", nil
	}
	p, err := noise.Parse(v)
	if err != nil {
		return "", err
	}
	return fmt.Sprint(p), nil
}

// canonMachine validates the machine spelling but keeps it: machine
// canonical names embed FormatRate's rounded mantissas, so re-rendering
// is not value-preserving. Trimmed user spelling is the canonical form.
func canonMachine(v string) (string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", nil
	}
	if _, err := cluster.ParseMachine(v); err != nil {
		return "", err
	}
	return v, nil
}

// canonNetModel validates the model spelling but keeps it, for the same
// reason as canonMachine.
func canonNetModel(v string) (string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", nil
	}
	if _, err := netmodel.Parse(v); err != nil {
		return "", err
	}
	return v, nil
}

func canonDuration(v string) (string, error) {
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil || d <= 0 {
		return "", fmt.Errorf("bad duration %q (want a positive duration like 1.5ms)", v)
	}
	return d.String(), nil
}

func canonOptionalDuration(v string) (string, error) {
	if strings.TrimSpace(v) == "" {
		return "", nil
	}
	return canonDuration(v)
}

func canonFloat(v string) (string, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || !(f >= 0) || math.IsInf(f, 0) {
		return "", fmt.Errorf("bad value %q (want a finite non-negative number)", v)
	}
	return strconv.FormatFloat(f, 'g', -1, 64), nil
}

func canonPosInt(v string) (string, error) {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n <= 0 {
		return "", fmt.Errorf("bad value %q (want a positive integer)", v)
	}
	return strconv.Itoa(n), nil
}

func canonUint(v string) (string, error) {
	n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return "", fmt.Errorf("bad value %q (want an unsigned integer)", v)
	}
	return strconv.FormatUint(n, 10), nil
}

func canonRate(v string) (string, error) {
	v = strings.TrimSpace(v)
	if _, err := netmodel.ParseRate(v, "bandwidth"); err != nil {
		return "", err
	}
	return v, nil
}

func canonDirection(v string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "":
		return "", nil
	case "uni", "unidirectional":
		return "uni", nil
	case "bi", "bidirectional":
		return "bi", nil
	}
	return "", fmt.Errorf("spec: bad direction %q (want uni or bi)", v)
}

func canonBoundary(v string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "":
		return "", nil
	case "open":
		return "open", nil
	case "periodic":
		return "periodic", nil
	}
	return "", fmt.Errorf("spec: bad boundary %q (want open or periodic)", v)
}

func canonTrace(v string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "":
		return "", nil
	case "full":
		return "full", nil
	case "steps":
		return "steps", nil
	case "off":
		return "off", nil
	}
	return "", fmt.Errorf("spec: bad trace %q (want full, steps or off)", v)
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}
