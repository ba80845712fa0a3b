// Package genload opens the open-system workload axis: stochastic
// workload generators that expand per-rank phase-time draws and
// delay-injection processes into ordinary simulator programs, multi-job
// mixes that co-run several workloads on disjoint rank blocks, and the
// replay side of the versioned executed-trace format (trace v2).
//
// Everything in the package is deterministic by construction: all
// randomness is expanded at Programs() time from a fixed seed through
// internal/rng split streams keyed by (seed, rank, stream), so the
// entire existing pipeline — Simulate, Sweep, shards, front trackers,
// the sweep service — runs generated workloads unchanged and
// the repository's determinism contract (fixed seed ⇒ byte-identical
// output at any worker or shard count) holds with no new machinery.
//
// The package deliberately does not import internal/workload: its
// Part interface is structurally identical to workload.Workload, so
// values flow freely in both directions (Go interface types with the
// same method set are identical types) while the dependency stays
// one-way (workload's parser builds genload values, never vice versa).
package genload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Distribution is a parameterized probability distribution over
// durations, the unit genload workloads draw phase times, injected-delay
// magnitudes and inter-arrival gaps from. Implementations are value
// types and must be pure: Sample may only consume draws from the passed
// generator, so that the (seed, draw-count) → sample mapping is
// deterministic and shard-invariant.
type Distribution interface {
	// Validate checks the distribution parameters.
	Validate() error
	// Sample draws one value (seconds). at is the nominal simulated time
	// of the draw; stationary distributions ignore it, temporal
	// modulation (Modulated) scales by it.
	Sample(r *rng.Rand, at sim.Time) sim.Time
	// Mean returns the analytic mean (the stationary mean for modulated
	// distributions, whose envelope averages to 1 over full periods).
	Mean() sim.Time
	// String renders the distribution in the ParseDistribution flag
	// syntax; the rendering re-parses to an equal value.
	String() string
}

// Compile-time interface checks for all components.
var _ = []Distribution{Det{}, Exp{}, Gamma{}, Weibull{}, Uniform{}, Pareto{}, Modulated{}}

// Det is the degenerate point distribution: every sample is Value. It
// consumes no draws.
type Det struct {
	Value sim.Time
}

// Validate checks the parameters.
func (d Det) Validate() error {
	if !sim.Positive(d.Value) {
		return fmt.Errorf("genload: det needs a positive finite value, got %v", d.Value)
	}
	return nil
}

// Sample returns the fixed value.
func (d Det) Sample(*rng.Rand, sim.Time) sim.Time { return d.Value }

// Mean returns the fixed value.
func (d Det) Mean() sim.Time { return d.Value }

// String renders the flag spelling ("det:5ms").
func (d Det) String() string { return "det:" + sim.FormatDuration(d.Value) }

// Exp is the exponential distribution with the given mean — as the
// inter-arrival distribution of an injection process it makes the
// process Poisson.
type Exp struct {
	MeanTime sim.Time
}

// Validate checks the parameters.
func (e Exp) Validate() error {
	if !sim.Positive(e.MeanTime) {
		return fmt.Errorf("genload: exp needs a positive finite mean, got %v", e.MeanTime)
	}
	return nil
}

// Sample draws via the inverse CDF (one uniform draw).
func (e Exp) Sample(r *rng.Rand, _ sim.Time) sim.Time {
	return sim.Time(r.Exp(float64(e.MeanTime)))
}

// Mean returns the mean.
func (e Exp) Mean() sim.Time { return e.MeanTime }

// String renders the flag spelling ("exp:3ms").
func (e Exp) String() string { return "exp:" + sim.FormatDuration(e.MeanTime) }

// Gamma is the gamma distribution with the given shape k and scale θ
// (mean kθ) — the standard model for service-time distributions with
// tunable burstiness (k < 1 bursty, k → ∞ deterministic).
type Gamma struct {
	Shape float64
	Scale sim.Time
}

// Validate checks the parameters.
func (g Gamma) Validate() error {
	if !(g.Shape > 0) || math.IsInf(g.Shape, 0) {
		return fmt.Errorf("genload: gamma needs a positive finite shape, got %g", g.Shape)
	}
	if !sim.Positive(g.Scale) {
		return fmt.Errorf("genload: gamma needs a positive finite scale, got %v", g.Scale)
	}
	return nil
}

// Sample draws via Marsaglia-Tsang squeeze (with the shape<1 boost).
func (g Gamma) Sample(r *rng.Rand, _ sim.Time) sim.Time {
	return sim.Time(float64(g.Scale) * sampleGammaUnit(r, g.Shape))
}

// Mean returns kθ.
func (g Gamma) Mean() sim.Time { return sim.Time(g.Shape * float64(g.Scale)) }

// String renders the flag spelling ("gamma:shape=2:scale=1ms").
func (g Gamma) String() string {
	return "gamma:shape=" + formatFloat(g.Shape) + ":scale=" + sim.FormatDuration(g.Scale)
}

// sampleGammaUnit draws a Gamma(shape, 1) sample via the Marsaglia-Tsang
// method; shapes below 1 use the standard boost Gamma(k) =
// Gamma(k+1)·U^(1/k).
func sampleGammaUnit(r *rng.Rand, shape float64) float64 {
	if shape < 1 {
		return sampleGammaUnit(r, shape+1) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Weibull is the Weibull distribution with shape k and scale λ — the
// classic reliability/interference-burst model (k < 1 heavy-tailed,
// k = 1 exponential).
type Weibull struct {
	Shape float64
	Scale sim.Time
}

// Validate checks the parameters.
func (w Weibull) Validate() error {
	if !(w.Shape > 0) || math.IsInf(w.Shape, 0) {
		return fmt.Errorf("genload: weibull needs a positive finite shape, got %g", w.Shape)
	}
	if !sim.Positive(w.Scale) {
		return fmt.Errorf("genload: weibull needs a positive finite scale, got %v", w.Scale)
	}
	return nil
}

// Sample draws via the inverse CDF (one uniform draw).
func (w Weibull) Sample(r *rng.Rand, _ sim.Time) sim.Time {
	u := r.Float64()
	return sim.Time(float64(w.Scale) * math.Pow(-math.Log1p(-u), 1/w.Shape))
}

// Mean returns λΓ(1+1/k).
func (w Weibull) Mean() sim.Time {
	return sim.Time(float64(w.Scale) * math.Gamma(1+1/w.Shape))
}

// String renders the flag spelling ("weibull:shape=1.5:scale=2ms").
func (w Weibull) String() string {
	return "weibull:shape=" + formatFloat(w.Shape) + ":scale=" + sim.FormatDuration(w.Scale)
}

// Uniform is the uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi sim.Time
}

// Validate checks the parameters.
func (u Uniform) Validate() error {
	if !sim.Positive(u.Lo) || !sim.Positive(u.Hi) || !(u.Hi > u.Lo) {
		return fmt.Errorf("genload: uniform needs 0 < lo < hi, got [%v, %v)", u.Lo, u.Hi)
	}
	return nil
}

// Sample draws uniformly (one uniform draw).
func (u Uniform) Sample(r *rng.Rand, _ sim.Time) sim.Time {
	return sim.Time(r.Uniform(float64(u.Lo), float64(u.Hi)))
}

// Mean returns the midpoint.
func (u Uniform) Mean() sim.Time { return (u.Lo + u.Hi) / 2 }

// String renders the flag spelling ("uniform:1ms:2ms").
func (u Uniform) String() string {
	return "uniform:" + sim.FormatDuration(u.Lo) + ":" + sim.FormatDuration(u.Hi)
}

// Pareto is the Pareto distribution with shape α and minimum x_m — the
// heavy-tailed model for rare, large interference events.
type Pareto struct {
	Shape float64
	Min   sim.Time
}

// Validate checks the parameters.
func (p Pareto) Validate() error {
	if !(p.Shape > 0) || math.IsInf(p.Shape, 0) {
		return fmt.Errorf("genload: pareto needs a positive finite shape, got %g", p.Shape)
	}
	if !sim.Positive(p.Min) {
		return fmt.Errorf("genload: pareto needs a positive finite min, got %v", p.Min)
	}
	return nil
}

// Sample draws via the inverse CDF (one uniform draw).
func (p Pareto) Sample(r *rng.Rand, _ sim.Time) sim.Time {
	u := r.Float64()
	return sim.Time(float64(p.Min) * math.Pow(1-u, -1/p.Shape))
}

// Mean returns αx_m/(α-1) for α > 1, +Inf otherwise.
func (p Pareto) Mean() sim.Time {
	if p.Shape <= 1 {
		return sim.Time(math.Inf(1))
	}
	return sim.Time(p.Shape * float64(p.Min) / (p.Shape - 1))
}

// String renders the flag spelling ("pareto:shape=3:min=1ms").
func (p Pareto) String() string {
	return "pareto:shape=" + formatFloat(p.Shape) + ":min=" + sim.FormatDuration(p.Min)
}

// ModTerm is one sinusoidal term of a temporal modulation envelope.
type ModTerm struct {
	// Amp is the relative amplitude of the term (0.5 swings the rate
	// envelope between 0.5x and 1.5x). Negative amplitudes flip phase.
	Amp float64
	// Period is the term's period in simulated time (the diurnal cycle,
	// scaled to simulation scale).
	Period sim.Time
}

// Modulated scales a base distribution's samples by a multi-period
// sinusoidal envelope of the nominal simulated time — the diurnal-style
// rate modulation of open-system load models, scaled to simulated time.
// The envelope is
//
//	f(t) = max(0, 1 + Σ_i Amp_i · sin(2π t / Period_i))
//
// and averages to 1 over full periods, so Mean() is the base mean.
// Modulating an inter-arrival ("every") distribution modulates the
// injection rate inversely; modulating a phase distribution modulates
// the load directly.
type Modulated struct {
	Base  Distribution
	Terms []ModTerm
}

// Validate checks the envelope terms and the base distribution.
func (m Modulated) Validate() error {
	if m.Base == nil {
		return fmt.Errorf("genload: modulated distribution needs a base")
	}
	if _, nested := m.Base.(Modulated); nested {
		return fmt.Errorf("genload: modulation terms belong on one level; fold them into a single mod list")
	}
	if len(m.Terms) == 0 {
		return fmt.Errorf("genload: modulated distribution needs at least one mod term")
	}
	for i, t := range m.Terms {
		if math.IsNaN(t.Amp) || math.IsInf(t.Amp, 0) {
			return fmt.Errorf("genload: mod term %d has non-finite amplitude", i)
		}
		if !sim.Positive(t.Period) {
			return fmt.Errorf("genload: mod term %d needs a positive finite period, got %v", i, t.Period)
		}
	}
	return m.Base.Validate()
}

// Envelope evaluates the modulation factor at the given nominal time.
func (m Modulated) Envelope(at sim.Time) float64 {
	f := 1.0
	for _, t := range m.Terms {
		f += t.Amp * math.Sin(2*math.Pi*float64(at)/float64(t.Period))
	}
	if f < 0 {
		return 0
	}
	return f
}

// Sample draws from the base and scales by the envelope at the draw's
// nominal time.
func (m Modulated) Sample(r *rng.Rand, at sim.Time) sim.Time {
	return sim.Time(float64(m.Base.Sample(r, at)) * m.Envelope(at))
}

// Mean returns the base mean (the envelope averages to 1).
func (m Modulated) Mean() sim.Time { return m.Base.Mean() }

// String renders the base spelling with the mod terms appended
// ("exp:3ms:mod=0.5@100ms:mod=0.2@70ms").
func (m Modulated) String() string {
	var b strings.Builder
	b.WriteString(m.Base.String())
	for _, t := range m.Terms {
		b.WriteString(":mod=")
		b.WriteString(formatFloat(t.Amp))
		b.WriteByte('@')
		b.WriteString(sim.FormatDuration(t.Period))
	}
	return b.String()
}

// ParseDistribution builds a Distribution from the colon-separated flag
// syntax, parallel to the other component parsers:
//
//	det:<duration>
//	exp:<mean duration>
//	gamma:shape=<k>:scale=<duration>
//	weibull:shape=<k>:scale=<duration>
//	uniform:<lo duration>:<hi duration>
//	pareto:shape=<a>:min=<duration>
//
// Any component takes repeatable mod=<amp>@<period> options adding a
// sinusoidal temporal-modulation term ("exp:3ms:mod=0.5@100ms"). When a
// distribution is embedded inside a workload spec the inner separators
// are '/' instead of ':' ("gen:18:phase=gamma/shape=2/scale=3ms"), like
// embedded noise specs in machine descriptions.
func ParseDistribution(s string) (Distribution, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	rest := parts[1:]

	// Split trailing mod= options off the component's own arguments.
	var terms []ModTerm
	args := rest[:0:0]
	for _, p := range rest {
		if v, ok := strings.CutPrefix(strings.ToLower(strings.TrimSpace(p)), "mod="); ok {
			t, err := parseModTerm(v)
			if err != nil {
				return nil, fmt.Errorf("genload: distribution %q: %w", s, err)
			}
			terms = append(terms, t)
			continue
		}
		args = append(args, p)
	}

	d, err := parseComponent(kind, args)
	if err != nil {
		return nil, fmt.Errorf("genload: distribution %q: %w", s, err)
	}
	if len(terms) > 0 {
		d = Modulated{Base: d, Terms: terms}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// parseComponent builds the unmodulated component for one kind.
func parseComponent(kind string, args []string) (Distribution, error) {
	switch kind {
	case "det":
		if len(args) != 1 {
			return nil, fmt.Errorf("want det:<duration>")
		}
		v, err := parseDistDuration(args[0], "value")
		return Det{Value: v}, err
	case "exp":
		if len(args) != 1 {
			return nil, fmt.Errorf("want exp:<mean duration>")
		}
		v, err := parseDistDuration(args[0], "mean")
		return Exp{MeanTime: v}, err
	case "uniform":
		if len(args) != 2 {
			return nil, fmt.Errorf("want uniform:<lo>:<hi>")
		}
		lo, err := parseDistDuration(args[0], "lo")
		if err != nil {
			return nil, err
		}
		hi, err := parseDistDuration(args[1], "hi")
		return Uniform{Lo: lo, Hi: hi}, err
	case "gamma", "weibull", "pareto":
		opts, err := keyedOptions(args)
		if err != nil {
			return nil, err
		}
		shape, err := takeFloat(opts, "shape")
		if err != nil {
			return nil, err
		}
		scaleKey := "scale"
		if kind == "pareto" {
			scaleKey = "min"
		}
		scale, err := takeDuration(opts, scaleKey)
		if err != nil {
			return nil, err
		}
		for k := range opts {
			return nil, fmt.Errorf("unknown option %q for kind %q", k, kind)
		}
		switch kind {
		case "gamma":
			return Gamma{Shape: shape, Scale: scale}, nil
		case "weibull":
			return Weibull{Shape: shape, Scale: scale}, nil
		default:
			return Pareto{Shape: shape, Min: scale}, nil
		}
	}
	return nil, fmt.Errorf("unknown kind %q (want det, exp, gamma, weibull, uniform or pareto)", kind)
}

// parseModTerm reads one "amp@period" modulation term.
func parseModTerm(v string) (ModTerm, error) {
	amp, period, ok := strings.Cut(v, "@")
	if !ok {
		return ModTerm{}, fmt.Errorf("bad mod %q (want <amp>@<period>, e.g. 0.5@100ms)", v)
	}
	a, err := strconv.ParseFloat(strings.TrimSpace(amp), 64)
	if err != nil || math.IsNaN(a) || math.IsInf(a, 0) {
		return ModTerm{}, fmt.Errorf("bad mod amplitude %q", amp)
	}
	p, err := parseDistDuration(period, "mod period")
	if err != nil {
		return ModTerm{}, err
	}
	return ModTerm{Amp: a, Period: p}, nil
}

// keyedOptions splits key=value arguments into a map (lowercased keys,
// last spelling wins).
func keyedOptions(args []string) (map[string]string, error) {
	opts := make(map[string]string, len(args))
	for _, a := range args {
		k, v, ok := strings.Cut(strings.TrimSpace(a), "=")
		if !ok || strings.TrimSpace(k) == "" {
			return nil, fmt.Errorf("bad option %q (want key=value)", a)
		}
		opts[strings.ToLower(strings.TrimSpace(k))] = v
	}
	return opts, nil
}

func takeFloat(opts map[string]string, key string) (float64, error) {
	v, ok := opts[key]
	if !ok {
		return 0, fmt.Errorf("missing option %q", key)
	}
	delete(opts, key)
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad %s %q (want a positive number)", key, v)
	}
	return f, nil
}

func takeDuration(opts map[string]string, key string) (sim.Time, error) {
	v, ok := opts[key]
	if !ok {
		return 0, fmt.Errorf("missing option %q", key)
	}
	delete(opts, key)
	return parseDistDuration(v, key)
}

func parseDistDuration(v, key string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad %s %q (want a positive duration like 3ms)", key, v)
	}
	return sim.Time(d.Seconds()), nil
}

// formatFloat renders a float parameter in the shortest spelling that
// re-parses exactly.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// EmbedSpec renders a distribution for embedding inside a workload spec:
// the flag spelling with ':' separators replaced by '/', the idiom
// nested component specs use throughout the flag syntaxes.
func EmbedSpec(d Distribution) string {
	return strings.ReplaceAll(d.String(), ":", "/")
}

// ParseEmbedded parses an embedded distribution spec ('/'-separated, as
// it appears inside workload options).
func ParseEmbedded(s string) (Distribution, error) {
	return ParseDistribution(strings.ReplaceAll(s, "/", ":"))
}
