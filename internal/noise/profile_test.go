package noise

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The machine layer now derives its natural noise from the composable
// components; the streams must be byte-identical to the mixture Profiles
// the machines used before the redesign.
func TestComponentStreamsMatchLegacyProfiles(t *testing.T) {
	cases := []struct {
		name string
		np   NoiseProfile
		p    Profile
	}{
		{"emmy", EmmyNoise(), EmmyProfile()},
		{"meggie", MeggieNoise(), MeggieProfile()},
	}
	for _, c := range cases {
		got, err := c.np.Build(42, sim.Milli(3))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := c.p.Injector(42)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for rank := 0; rank < 4; rank++ {
			for step := 0; step < 500; step++ {
				if g, w := got(rank, step), want(rank, step); g != w {
					t.Fatalf("%s: rank %d step %d: component %v != profile %v", c.name, rank, step, g, w)
				}
			}
		}
	}
}

// A relative exponential component must reproduce the classic
// Exponential(seed, level, texec) injected-noise stream exactly, so a
// ScenarioSpec.Noise override of ExponentialNoise{Level: E} is
// byte-identical to NoiseLevel: E.
func TestExponentialLevelMatchesExponentialFunc(t *testing.T) {
	texec := sim.Milli(3)
	np, err := ExponentialNoise{Level: 0.25}.Build(7, texec)
	if err != nil {
		t.Fatal(err)
	}
	want := Exponential(7, 0.25, texec)
	for rank := 0; rank < 3; rank++ {
		for step := 0; step < 300; step++ {
			if g, w := np(rank, step), want(rank, step); g != w {
				t.Fatalf("rank %d step %d: %v != %v", rank, step, g, w)
			}
		}
	}
}

func TestExponentialNoiseValidate(t *testing.T) {
	bad := []ExponentialNoise{
		{},                       // nothing set
		{Level: 0.5, Mean: 1e-6}, // both set
		{Level: -1},              // negative
		{Mean: 1e-6, Cap: -1},    // negative cap
		{Level: math.NaN()},      // NaN level
		{Level: math.Inf(1)},     // infinite level
		{Mean: sim.Time(math.NaN())},
		{Mean: 1e-6, Cap: sim.Time(math.Inf(1))},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, e)
		}
	}
	if _, err := (ExponentialNoise{Level: 0.5}).Build(1, 0); err == nil {
		t.Error("relative level with texec=0 accepted")
	}
	if _, err := (ExponentialNoise{Mean: sim.Micro(2)}).Build(1, 0); err != nil {
		t.Errorf("absolute mean with texec=0 rejected: %v", err)
	}
}

// TestComponentValidateRejectsNonFinite has one row per bimodal and
// periodic parameter that an ordered comparison alone let through as
// NaN or infinity.
func TestComponentValidateRejectsNonFinite(t *testing.T) {
	nan, inf := sim.Time(math.NaN()), sim.Time(math.Inf(1))
	ok := BimodalNoise{Mean: 1e-6, SpikeWeight: 0.1, SpikeMean: 1e-6}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid bimodal rejected: %v", err)
	}
	bad := map[string]NoiseProfile{
		"bimodal NaN mean":           func() BimodalNoise { b := ok; b.Mean = nan; return b }(),
		"bimodal infinite cap":       func() BimodalNoise { b := ok; b.Cap = inf; return b }(),
		"bimodal NaN spike mean":     func() BimodalNoise { b := ok; b.SpikeMean = nan; return b }(),
		"bimodal NaN offset":         func() BimodalNoise { b := ok; b.SpikeOffset = nan; return b }(),
		"bimodal NaN weight":         func() BimodalNoise { b := ok; b.SpikeWeight = math.NaN(); return b }(),
		"bimodal NaN bulk weight":    func() BimodalNoise { b := ok; b.BulkWeight = math.NaN(); return b }(),
		"periodic NaN duration":      PeriodicNoise{Duration: nan, Period: 1e-3},
		"periodic infinite duration": PeriodicNoise{Duration: inf, Period: 1e-3},
		"periodic NaN period":        PeriodicNoise{Duration: 1e-6, Period: nan},
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPeriodicNoiseEventCount(t *testing.T) {
	texec := sim.Milli(1)
	p := PeriodicNoise{Duration: sim.Micro(100), Period: sim.Milli(10)}
	fn, err := p.Build(3, texec)
	if err != nil {
		t.Fatal(err)
	}
	// Over 1000 phases of 1 ms, a 10 ms period fires exactly 100 times
	// regardless of the rank's phase offset.
	for rank := 0; rank < 8; rank++ {
		var total sim.Time
		for step := 0; step < 1000; step++ {
			x := fn(rank, step)
			if x < 0 {
				t.Fatalf("negative periodic sample %v", x)
			}
			total += x
		}
		want := sim.Time(100) * p.Duration
		if math.Abs(float64(total-want)) > 1e-12 {
			t.Errorf("rank %d accumulated %v, want %v", rank, total, want)
		}
	}
}

func TestPeriodicNoiseRanksDesynchronized(t *testing.T) {
	p := PeriodicNoise{Duration: sim.Micro(500), Period: sim.Milli(10)}
	fn, err := p.Build(1, sim.Milli(3))
	if err != nil {
		t.Fatal(err)
	}
	// With a per-rank random phase, the step at which the first event
	// lands must differ across ranks (jitter is not a global barrier).
	first := func(rank int) int {
		for step := 0; step < 100; step++ {
			if fn(rank, step) > 0 {
				return step
			}
		}
		return -1
	}
	seen := map[int]bool{}
	for rank := 0; rank < 16; rank++ {
		seen[first(rank)] = true
	}
	if len(seen) < 2 {
		t.Errorf("all 16 ranks fired their first event at the same step")
	}
}

func TestPeriodicNoiseNeedsTexec(t *testing.T) {
	if _, err := (PeriodicNoise{Duration: 1e-6, Period: 1e-3}).Build(1, 0); err == nil {
		t.Error("periodic noise with texec=0 accepted")
	}
}

func TestCombineNoise(t *testing.T) {
	if _, ok := CombineNoise().(SilentNoise); !ok {
		t.Error("empty combine should be silent")
	}
	if _, ok := CombineNoise(nil, SilentNoise{}).(SilentNoise); !ok {
		t.Error("combine of nil and silent should be silent")
	}
	e := ExponentialNoise{Level: 0.1}
	if got := CombineNoise(e, SilentNoise{}); got != NoiseProfile(e) {
		t.Errorf("single live part should collapse, got %v", got)
	}
	c := CombineNoise(e, PeriodicNoise{Duration: 1e-6, Period: 1e-3})
	if _, ok := c.(CombinedNoise); !ok {
		t.Fatalf("got %T, want CombinedNoise", c)
	}
	nested := CombineNoise(c, EmmyNoise())
	if got := len(nested.(CombinedNoise).Parts); got != 3 {
		t.Errorf("nested combine has %d parts, want 3 (flattened)", got)
	}
	fn, err := c.Build(5, sim.Milli(3))
	if err != nil {
		t.Fatal(err)
	}
	if fn == nil {
		t.Fatal("combined injector is nil")
	}
	// The combined injector is the sum of its decorrelated parts, so it
	// must be at least the periodic component's deterministic floor.
	var sum sim.Time
	for step := 0; step < 10; step++ {
		sum += fn(0, step)
	}
	if sum <= 0 {
		t.Error("combined noise produced nothing over 10 steps")
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"silent",
		"exp:1.5",
		"exp:2.4us",
		"exp:2.4us:cap=30us",
		"bimodal",
		"bimodal:3us:cap=40us:spike=20us@500us:w=0.05",
		"periodic:500us@10ms",
		"exp:0.5+periodic:500us@10ms",
		"emmy",
		"meggie",
	}
	for _, s := range specs {
		p1, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		// Parse∘String must be a fixed point: one formatting pass may
		// canonicalize (durations round to nanoseconds, derived weights
		// drop), after which spec -> value -> spec is stable.
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("Parse(%q -> %q): %v", s, p1.String(), err)
		}
		p3, err := Parse(p2.String())
		if err != nil {
			t.Fatalf("Parse(%q -> %q): %v", s, p2.String(), err)
		}
		if !reflect.DeepEqual(p2, p3) {
			t.Errorf("%q: round trip %#v != %#v (via %q)", s, p2, p3, p2.String())
		}
	}
}

func TestParseValues(t *testing.T) {
	p, err := Parse("exp:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := p.(ExponentialNoise); !ok || e.Level != 1.5 || e.Mean != 0 {
		t.Errorf("exp:1.5 = %#v", p)
	}
	p, err = Parse("periodic:500us@10ms")
	if err != nil {
		t.Fatal(err)
	}
	if pn, ok := p.(PeriodicNoise); !ok || pn.Duration != sim.Time(500e-6) || pn.Period != sim.Time(10e-3) {
		t.Errorf("periodic = %#v", p)
	}
	if p, err = Parse("0"); err != nil {
		t.Fatal(err)
	} else if _, ok := p.(SilentNoise); !ok {
		t.Errorf("\"0\" = %#v, want SilentNoise", p)
	}
	if p, err = Parse("meggie"); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(p, NoiseProfile(MeggieNoise())) {
		t.Errorf("meggie = %#v", p)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "exp", "exp:-1", "exp:1.5:cap=-3us", "exp:1.5:oops=2",
		"periodic", "periodic:500us", "periodic:0s@10ms",
		"bimodal:3us:w=2", "waves:1", "exp:1.5+", "silent:2",
		"exp:NaN", "exp:Inf", "exp:-Inf", "bimodal:3us:w=NaN", "bimodal:3us:wbulk=Inf",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestSampleProfile(t *testing.T) {
	xs, err := SampleProfile(SilentNoise{}, 1, sim.Milli(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if x != 0 {
			t.Error("silent samples should be zero")
		}
	}
	// SampleProfile over the Emmy component must equal the legacy
	// Profile.Sample path (the noisescan output contract).
	a, err := SampleProfile(EmmyNoise(), 9, sim.Milli(3), 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmmyProfile().Sample(9, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestCombinedStringUsesPlus(t *testing.T) {
	c := CombineNoise(ExponentialNoise{Level: 0.5}, PeriodicNoise{Duration: sim.Micro(500), Period: sim.Milli(10)})
	if s := c.String(); !strings.Contains(s, "+") {
		t.Errorf("combined String = %q, want a + join", s)
	}
}
