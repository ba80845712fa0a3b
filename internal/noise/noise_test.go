package noise

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestExponentialLevelZeroIsNil(t *testing.T) {
	if Exponential(1, 0, sim.Milli(3)) != nil {
		t.Error("level 0 should return nil injector")
	}
	if Exponential(1, -0.5, sim.Milli(3)) != nil {
		t.Error("negative level should return nil injector")
	}
}

func TestExponentialMean(t *testing.T) {
	texec := sim.Milli(3)
	level := 0.2 // E = 20%
	inj := Exponential(42, level, texec)
	var s stats.Summary
	for step := 0; step < 50000; step++ {
		s.Add(float64(inj(0, step)))
	}
	want := level * float64(texec)
	if math.Abs(s.Mean()-want)/want > 0.03 {
		t.Errorf("noise mean = %g, want ~%g", s.Mean(), want)
	}
	if s.Min() < 0 {
		t.Error("negative noise sample")
	}
}

func TestExponentialDeterministicAndRankIndependent(t *testing.T) {
	texec := sim.Milli(3)
	a := Exponential(7, 0.1, texec)
	b := Exponential(7, 0.1, texec)
	// Same seed, same (rank, step) sequence -> identical samples.
	for step := 0; step < 100; step++ {
		if a(3, step) != b(3, step) {
			t.Fatalf("same seed diverged at step %d", step)
		}
	}
	// Querying other ranks in between must not perturb rank 3's stream.
	c := Exponential(7, 0.1, texec)
	c(0, 0)
	c(5, 0)
	fresh := Exponential(7, 0.1, texec)
	if c(3, 0) != fresh(3, 0) {
		t.Error("rank 3 stream depends on other ranks' draws")
	}
	// Different ranks see different noise.
	d := Exponential(7, 0.1, texec)
	same := 0
	for step := 0; step < 100; step++ {
		if d(1, step) == d(2, step) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("ranks 1 and 2 shared %d/100 samples", same)
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Name: "empty"},
		{Name: "negweight", Components: []ProfileComponent{{Weight: -1, Mean: 1}}},
		{Name: "negmean", Components: []ProfileComponent{{Weight: 1, Mean: -1}}},
		{Name: "zeroweight", Components: []ProfileComponent{{Weight: 0, Mean: 1}}},
		{Name: "nanweight", Components: []ProfileComponent{{Weight: math.NaN(), Mean: 1}}},
		{Name: "infweight", Components: []ProfileComponent{{Weight: math.Inf(1), Mean: 1}}},
		{Name: "nanmean", Components: []ProfileComponent{{Weight: 1, Mean: sim.Time(math.NaN())}}},
		{Name: "nancap", Components: []ProfileComponent{{Weight: 1, Mean: 1, Cap: sim.Time(math.NaN())}}},
		{Name: "infoffset", Components: []ProfileComponent{{Weight: 1, Mean: 1, Offset: sim.Time(math.Inf(1))}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %q accepted", p.Name)
		}
		if _, err := p.Injector(1); err == nil {
			t.Errorf("Injector for %q accepted", p.Name)
		}
		if _, err := p.Sample(1, 10); err == nil {
			t.Errorf("Sample for %q accepted", p.Name)
		}
	}
	if err := EmmyProfile().Validate(); err != nil {
		t.Errorf("Emmy profile invalid: %v", err)
	}
	if err := MeggieProfile().Validate(); err != nil {
		t.Errorf("Meggie profile invalid: %v", err)
	}
}

func TestEmmyProfileShape(t *testing.T) {
	// Fig. 3a: mean ~2.4 us, max below 30 us, unimodal.
	xs, err := EmmyProfile().Sample(3, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Summary
	for _, x := range xs {
		s.Add(float64(x))
	}
	if math.Abs(s.Mean()-2.4e-6)/2.4e-6 > 0.05 {
		t.Errorf("Emmy mean = %g s, want ~2.4us", s.Mean())
	}
	if s.Max() > 30e-6 {
		t.Errorf("Emmy max = %g s, want < 30us", s.Max())
	}
}

func TestMeggieProfileIsBimodal(t *testing.T) {
	// Fig. 3b: second peak near 660 us.
	xs, err := MeggieProfile().Sample(4, 200000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := stats.NewHistogram(0, 800e-6, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		h.Add(float64(x))
	}
	peaks := h.Peaks(h.N() / 1000)
	if len(peaks) < 2 {
		t.Fatalf("Meggie histogram has %d peaks, want >= 2 (bimodal): %v", len(peaks), peaks)
	}
	// Second population should sit near 660 us.
	foundDriver := false
	for _, p := range peaks {
		if p > 600e-6 && p < 720e-6 {
			foundDriver = true
		}
	}
	if !foundDriver {
		t.Errorf("no peak near 660us: %v", peaks)
	}
}

func TestCombine(t *testing.T) {
	one := func(rank, step int) sim.Time { return 1 }
	two := func(rank, step int) sim.Time { return 2 }
	if got := Combine(one, two)(0, 0); got != 3 {
		t.Errorf("Combine sum = %v, want 3", got)
	}
	if got := Combine(nil, one, nil)(0, 0); got != 1 {
		t.Errorf("Combine with nils = %v, want 1", got)
	}
	if Combine(nil, nil) != nil {
		t.Error("Combine of nils should be nil")
	}
	if Combine() != nil {
		t.Error("Combine of nothing should be nil")
	}
}

func TestSilentNoise(t *testing.T) {
	inj, err := SilentNoise{}.Build(1, sim.Milli(3))
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		t.Error("silent profile should produce nil injector")
	}
}

func TestProfileSampleDeterminism(t *testing.T) {
	a, err := MeggieProfile().Sample(9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeggieProfile().Sample(9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestInjectionStruct(t *testing.T) {
	inj := Injection{Rank: 5, Step: 1, Duration: sim.Milli(90)}
	if inj.Rank != 5 || inj.Step != 1 || inj.Duration != sim.Milli(90) {
		t.Error("Injection fields")
	}
}
