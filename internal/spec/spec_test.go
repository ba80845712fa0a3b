package spec

import (
	"math"
	"strings"
	"testing"
)

func validSweep() Sweep {
	return Sweep{
		Base: Scenario{
			Machine:  "emmy",
			Topology: "chain:24",
			Steps:    26,
			Seed:     42,
			Delay:    []Delay{{Rank: 12, Step: 5, Duration: "1500us"}},
		},
		Axes: []Axis{
			{Kind: "Noise", Values: []string{"0", "0.5", "1.0"}},
			{Kind: "bytes", Values: []string{"8192", "131073"}},
		},
		Metrics: []string{"Speed", "decay"},
		Workers: 3,
	}
}

func TestCanonicalNormalizes(t *testing.T) {
	c, err := validSweep().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Base.Delay[0].Duration != "1.5ms" {
		t.Errorf("delay duration not canonicalized: %q", c.Base.Delay[0].Duration)
	}
	if c.Axes[0].Kind != "noise" {
		t.Errorf("axis kind not lowercased: %q", c.Axes[0].Kind)
	}
	if got := c.Axes[0].Values[2]; got != "1" {
		t.Errorf("float value not canonicalized: %q", got)
	}
	if c.Metrics[0] != "speed" {
		t.Errorf("metric not lowercased: %q", c.Metrics[0])
	}
}

func TestCanonicalComponentStrings(t *testing.T) {
	s := Sweep{Base: Scenario{
		Workload: "triad:18:ws=1.2e9", // explicit default folds away
		Noise:    "exp:0.5",
		Machine:  " emmy ",
		NetModel: "hockney:bw=3e9",
	}}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Base.Workload != "triad:18" {
		t.Errorf("workload not canonicalized: %q", c.Base.Workload)
	}
	if c.Base.Machine != "emmy" {
		t.Errorf("machine not trimmed: %q", c.Base.Machine)
	}
	if c.Base.NetModel != "hockney:bw=3e9" {
		t.Errorf("netmodel spelling changed: %q", c.Base.NetModel)
	}
}

func TestCanonicalRejects(t *testing.T) {
	base := validSweep()
	for name, mutate := range map[string]func(*Sweep){
		"bad workload":       func(s *Sweep) { s.Base.Workload = "warp:8" },
		"bad topology":       func(s *Sweep) { s.Base.Topology = "blob:9" },
		"bad machine":        func(s *Sweep) { s.Base.Machine = "deepthought" },
		"bad noise":          func(s *Sweep) { s.Base.Noise = "loud" },
		"bad netmodel":       func(s *Sweep) { s.Base.NetModel = "hier(a|b|c)" },
		"bad texec":          func(s *Sweep) { s.Base.Texec = "-3ms" },
		"bad direction":      func(s *Sweep) { s.Base.Direction = "sideways" },
		"bad boundary":       func(s *Sweep) { s.Base.Boundary = "wall" },
		"bad trace":          func(s *Sweep) { s.Base.Trace = "verbose" },
		"negative ranks":     func(s *Sweep) { s.Base.Ranks = -1 },
		"negative shards":    func(s *Sweep) { s.Base.Shards = -1 },
		"negative workers":   func(s *Sweep) { s.Workers = -1 },
		"noise conflict":     func(s *Sweep) { s.Base.Noise = "exp:0.5"; s.Base.NoiseLevel = 0.5 },
		"bad delay duration": func(s *Sweep) { s.Base.Delay[0].Duration = "0s" },
		"negative delay":     func(s *Sweep) { s.Base.Delay[0].Rank = -1 },
		"unknown axis":       func(s *Sweep) { s.Axes[0].Kind = "flavor" },
		"empty axis":         func(s *Sweep) { s.Axes[0].Values = nil },
		"bad axis value":     func(s *Sweep) { s.Axes[1].Values[0] = "many" },
		"unknown metric":     func(s *Sweep) { s.Metrics = []string{"vibes"} },
		"NaN noise_level":    func(s *Sweep) { s.Base.NoiseLevel = math.NaN() },
		"Inf noise_level":    func(s *Sweep) { s.Base.NoiseLevel = math.Inf(1) },
		"NaN noise value":    func(s *Sweep) { s.Axes[0].Values[0] = "NaN" },
		"Inf noise value":    func(s *Sweep) { s.Axes[0].Values[0] = "Inf" },
	} {
		s := base
		s.Base.Delay = append([]Delay(nil), base.Base.Delay...)
		s.Axes = []Axis{
			{Kind: base.Axes[0].Kind, Values: append([]string(nil), base.Axes[0].Values...)},
			{Kind: base.Axes[1].Kind, Values: append([]string(nil), base.Axes[1].Values...)},
		}
		mutate(&s)
		if _, err := s.Canonical(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHashIgnoresExecutionConfig(t *testing.T) {
	a := validSweep()
	b := validSweep()
	b.Workers = 16
	b.Base.Shards = 4
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("workers/shards split the hash: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not hex SHA-256", ha)
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	a := validSweep()
	b := validSweep()
	b.Base.Seed = 43
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha == hb {
		t.Error("different seeds hash identically")
	}
	c := validSweep()
	c.Metrics = []string{"idle"}
	hc, _ := c.Hash()
	if ha == hc {
		t.Error("different metrics hash identically")
	}
}

func TestHashEquivalentSpellings(t *testing.T) {
	a := validSweep()
	b := validSweep()
	b.Base.Delay[0].Duration = "1.5ms" // same value, different spelling
	b.Axes[0].Values = []string{"0.0", "0.50", "1"}
	b.Metrics = []string{"SPEED", "Decay"}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("equivalent spellings hash differently: %s vs %s", ha, hb)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := validSweep()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := s.Hash()
	h2, _ := back.Hash()
	if h1 != h2 {
		t.Errorf("encode/decode changed the hash: %s vs %s", h1, h2)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"base": {"ranks": 8}, "axis": []}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := Decode([]byte(`{"base": {"rnaks": 8}}`)); err == nil {
		t.Error("unknown scenario field accepted")
	}
	if _, err := Decode([]byte(`{"base": {}} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestPointsAndSlice(t *testing.T) {
	s := validSweep()
	n, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("Points = %d, want 6", n)
	}
	sl, err := s.Slice([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sl.Points(); got != 1 {
		t.Errorf("slice has %d points", got)
	}
	if sl.Axes[0].Values[0] != "1.0" || sl.Axes[1].Values[0] != "131073" {
		t.Errorf("slice picked wrong values: %+v", sl.Axes)
	}
	if _, err := s.Slice([]int{0}); err == nil {
		t.Error("coordinate count mismatch accepted")
	}
	if _, err := s.Slice([]int{3, 0}); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
}

func TestSliceHashesDiffer(t *testing.T) {
	s := validSweep()
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			sl, err := s.Slice([]int{i, j})
			if err != nil {
				t.Fatal(err)
			}
			h, err := sl.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if seen[h] {
				t.Fatalf("duplicate point hash at (%d,%d)", i, j)
			}
			seen[h] = true
		}
	}
}

func TestMetricDefaults(t *testing.T) {
	c, err := Sweep{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(c.Metrics, ",") != "speed,decay,idle,runtime" {
		t.Errorf("default metrics = %v", c.Metrics)
	}
}
