package idlewave

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/workload"
)

// TestMetricByNameCoversSpecNames pins the wire codec's metric list to
// the resolver: every name the codec accepts must resolve, so a spec
// that passes Canonical() cannot fail metric lookup later.
func TestMetricByNameCoversSpecNames(t *testing.T) {
	for _, name := range spec.MetricNames {
		m, err := MetricByName(name, 0)
		if err != nil {
			t.Errorf("MetricByName(%q): %v", name, err)
			continue
		}
		if m.Name == "" || m.Fn == nil {
			t.Errorf("MetricByName(%q) returned an empty metric", name)
		}
	}
	if _, err := MetricByName("vibes", 0); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestScenarioFromSpec(t *testing.T) {
	ws := SpecScenario{
		Machine:  "meggie:noise=0",
		Topology: "chain:24:periodic",
		Steps:    26,
		Texec:    "3ms",
		Seed:     42,
		Delay:    []SpecDelay{{Rank: 12, Step: 2, Duration: "15ms"}},
	}
	s, err := ScenarioFromSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.Name != "meggie:noise=0" {
		t.Errorf("machine = %q", s.Machine.Name)
	}
	if s.Topology == nil || s.Topology.Ranks() != 24 {
		t.Errorf("topology = %v", s.Topology)
	}
	if s.Texec != 3*time.Millisecond || s.Steps != 26 || s.Seed != 42 {
		t.Errorf("scalars not converted: %+v", s)
	}
	if len(s.Delay) != 1 || s.Delay[0] != Inject(12, 2, 15*time.Millisecond) {
		t.Errorf("delay = %+v", s.Delay)
	}
	if _, err := Simulate(s); err != nil {
		t.Fatalf("converted scenario does not simulate: %v", err)
	}
}

// TestScenarioFromSpecWorkloadStepsThreading: a workload spec absorbs
// the scenario-level step count, matching the CLIs' -steps flag.
func TestScenarioFromSpecWorkloadStepsThreading(t *testing.T) {
	s, err := ScenarioFromSpec(SpecScenario{Workload: "divide:8", Steps: 11})
	if err != nil {
		t.Fatal(err)
	}
	if s.Steps != 0 {
		t.Errorf("Steps = %d, want 0 (carried by the workload)", s.Steps)
	}
	dk, ok := s.Workload.(DivideKernel)
	if !ok {
		t.Fatalf("workload = %T", s.Workload)
	}
	if dk.Steps != 11 {
		t.Errorf("workload steps = %d, want 11", dk.Steps)
	}
	// An explicit steps= option inside the workload spec wins.
	s2, err := ScenarioFromSpec(SpecScenario{Workload: "divide:8:steps=5", Steps: 11})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Workload.(DivideKernel).Steps != 5 {
		t.Errorf("workload steps = %d, want 5", s2.Workload.(DivideKernel).Steps)
	}
}

func TestScenarioFromSpecRejects(t *testing.T) {
	for name, ws := range map[string]SpecScenario{
		"bad machine":  {Machine: "deepthought"},
		"bad topology": {Topology: "blob:9"},
		"bad workload": {Workload: "warp:8"},
		"bad noise":    {Noise: "loud"},
		"bad netmodel": {NetModel: "warp:bw=1"},
		"conflict":     {Noise: "exp:0.5", NoiseLevel: 0.5},
	} {
		if _, err := ScenarioFromSpec(ws); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// specForFlags mirrors the default cmd/sweep flag set: machine axis,
// noise axis, bytes axis, d axis, direction axis over a periodic
// 24-rank chain with the standard delay injection.
func specForFlags() *Spec {
	return &Spec{
		Base: SpecScenario{
			Ranks:    24,
			Steps:    26,
			Texec:    "3ms",
			Boundary: "periodic",
			Seed:     42,
			Delay:    []SpecDelay{{Rank: 0, Step: 2, Duration: "15ms"}},
		},
		Axes: []SpecAxis{
			{Kind: "machine", Values: []string{"emmy"}},
			{Kind: "noise", Values: []string{"0", "0.05"}},
			{Kind: "bytes", Values: []string{"8192"}},
			{Kind: "d", Values: []string{"1"}},
			{Kind: "direction", Values: []string{"bi"}},
		},
	}
}

// TestSweepFromSpecMatchesBuilders: the declarative spec must produce
// byte-identical CSV to the same sweep assembled from the public axis
// builders — the equivalence the sweep service's cache correctness
// rests on.
func TestSweepFromSpecMatchesBuilders(t *testing.T) {
	fromSpec, err := SweepFromSpec(specForFlags())
	if err != nil {
		t.Fatal(err)
	}
	tblSpec, err := Sweep(fromSpec)
	if err != nil {
		t.Fatal(err)
	}

	base := ScenarioSpec{
		Ranks: 24, Steps: 26, Texec: 3 * time.Millisecond,
		Boundary: Periodic, Seed: 42,
		Delay: []Injection{Inject(0, 2, 15*time.Millisecond)},
	}
	direct := SweepSpec{
		Base: base,
		Axes: []SweepAxis{
			MachineAxis(Emmy()),
			NoiseAxis(0, 0.05),
			MessageAxis(8192),
			DistanceAxis(1),
			DirectionAxis(Bidirectional),
		},
		Metrics: []Metric{MetricWaveSpeed(0), MetricWaveDecay(0), MetricTotalIdle(), MetricRuntime()},
	}
	tblDirect, err := Sweep(direct)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := tblSpec.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := tblDirect.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("spec-built sweep differs from builder-built sweep:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestSweepFromSpecNoAxes: a spec without axes runs as a single-point
// sweep over the base seed.
func TestSweepFromSpecNoAxes(t *testing.T) {
	ws := &Spec{Base: SpecScenario{Ranks: 8, Steps: 6, Seed: 7}, Metrics: []string{"runtime"}}
	ss, err := SweepFromSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Sweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 1 {
		t.Fatalf("%d points, want 1", len(tbl.Points))
	}
	if tbl.Header[0] != "seed" || tbl.Points[0].Labels[0] != "7" {
		t.Errorf("implicit seed axis missing: header %v labels %v", tbl.Header, tbl.Points[0].Labels)
	}
}

// TestParseSpecRoundTrip: JSON in, same hash out.
func TestParseSpecRoundTrip(t *testing.T) {
	ws := specForFlags()
	data, err := ws.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := ws.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash changed across encode/decode: %s vs %s", h1, h2)
	}
	if _, err := ParseSpec([]byte(`{"base": {"rnaks": 3}}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestSpecSliceEquivalence: running each 1-point slice of a sweep
// produces exactly the rows of the full sweep, in grid order — the
// property the sweep service's per-point cache relies on.
func TestSpecSliceEquivalence(t *testing.T) {
	ws := specForFlags()
	full, err := SweepFromSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	tblFull, err := Sweep(full)
	if err != nil {
		t.Fatal(err)
	}
	// Row-major iteration, last axis fastest: noise is axis 1 (2 values).
	for i, point := range tblFull.Points {
		coords := []int{0, i, 0, 0, 0}
		sl, err := ws.Slice(coords)
		if err != nil {
			t.Fatal(err)
		}
		one, err := SweepFromSpec(&sl)
		if err != nil {
			t.Fatal(err)
		}
		tblOne, err := Sweep(one)
		if err != nil {
			t.Fatal(err)
		}
		if len(tblOne.Points) != 1 {
			t.Fatalf("slice %d: %d points", i, len(tblOne.Points))
		}
		var a, b bytes.Buffer
		rowFull := SweepTable{Header: tblFull.Header, Points: []SweepPoint{point}}
		if err := rowFull.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := tblOne.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("slice %d differs from full sweep row:\n%s\nvs\n%s", i, a.String(), b.String())
		}
	}
}

// TestSpecWorkloadStepsMatchBuilders: a spec's base steps reach its
// workloads exactly as the builders' Defaults do, for an axis and for
// the base, at a step count other than workload.DefaultSteps — also for
// a gen workload, whose label always states its steps, and for an
// explicit steps=24, which a label leaves out.
func TestSpecWorkloadStepsMatchBuilders(t *testing.T) {
	const steps = 10
	values := []string{"gen:16", "triad:8:steps=24", "mix:bulk/8+gen/8"}
	var wls []Workload
	for _, v := range values {
		wl, err := workload.ParseWith(v, workload.Defaults{Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	ws := &Spec{
		Base:    SpecScenario{Steps: steps, Seed: 42},
		Axes:    []SpecAxis{{Kind: "workload", Values: values}},
		Metrics: []string{"runtime"},
	}
	fromSpec, err := SweepFromSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	direct := SweepSpec{
		Base:    ScenarioSpec{Seed: 42},
		Axes:    []SweepAxis{WorkloadAxis(wls...)},
		Metrics: []Metric{MetricRuntime()},
	}
	var a, b bytes.Buffer
	for _, c := range []struct {
		ss  SweepSpec
		out *bytes.Buffer
	}{{fromSpec, &a}, {direct, &b}} {
		tbl, err := Sweep(c.ss)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.WriteCSV(c.out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("spec workload axis differs from builders:\n%s\nvs\n%s", a.String(), b.String())
	}

	for i, v := range values {
		s, err := ScenarioFromSpec(SpecScenario{Workload: v, Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(s.Workload), fmt.Sprint(wls[i]); got != want {
			t.Errorf("base %s: workload %s, want %s", v, got, want)
		}
	}

	c, err := ws.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, cc) {
		t.Errorf("Canonical is not idempotent:\n%+v\nvs\n%+v", c, cc)
	}
}
