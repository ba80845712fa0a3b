package idlewave

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// dampingSweep is the shared fixed-seed grid used by the determinism
// tests and the scaling benchmarks: noise level x message size on a
// bidirectional ring with one injected delay.
func dampingSweep(workers int) SweepSpec {
	return SweepSpec{
		Base: ScenarioSpec{
			Ranks: 24, Steps: 26,
			Machine:   Simulated(),
			Delay:     []Injection{Inject(0, 2, 15*time.Millisecond)},
			Direction: Bidirectional,
			Boundary:  Periodic,
			Seed:      42,
		},
		Axes: []SweepAxis{
			NoiseAxis(0, 0.02, 0.05, 0.10),
			MessageAxis(8192, 262144),
		},
		Metrics: []Metric{MetricWaveDecay(0), MetricTotalIdle(), MetricRuntime()},
		Workers: workers,
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		tbl, err := Sweep(dampingSweep(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		if err := tbl.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1)
	for _, w := range []int{2, 8, 0} {
		if got := render(w); got != serial {
			t.Errorf("workers=%d output differs from workers=1:\n--- workers=1\n%s--- workers=%d\n%s",
				w, serial, w, got)
		}
	}
}

func TestSweepGridOrderAndShape(t *testing.T) {
	tbl, err := Sweep(dampingSweep(0))
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"E", "message_bytes", "decay_s_per_rank", "total_idle_s", "runtime_s"}
	if strings.Join(tbl.Header, ",") != strings.Join(wantHeader, ",") {
		t.Errorf("header = %v, want %v", tbl.Header, wantHeader)
	}
	if len(tbl.Points) != 8 {
		t.Fatalf("points = %d, want 4x2", len(tbl.Points))
	}
	// Row-major order: message_bytes (last axis) varies fastest.
	if tbl.Points[0].Labels[1] != "8192" || tbl.Points[1].Labels[1] != "262144" {
		t.Errorf("first two points %v, %v: last axis not fastest",
			tbl.Points[0].Labels, tbl.Points[1].Labels)
	}
	if tbl.Points[0].Labels[0] != "0" || tbl.Points[2].Labels[0] != "0.02" {
		t.Errorf("E axis labels off: %v, %v", tbl.Points[0].Labels, tbl.Points[2].Labels)
	}
	// Physics sanity: decay rate at E=10% must exceed the silent rate
	// (noise damps the wave), for the eager column.
	silent := tbl.Points[0].Values[0]
	noisy := tbl.Points[6].Values[0]
	if !(noisy > silent) {
		t.Errorf("decay at E=0.10 (%g) not above silent decay (%g)", noisy, silent)
	}
	// Resolved specs carry the applied axis values.
	if tbl.Points[7].Spec.NoiseLevel != 0.10 || tbl.Points[7].Spec.MessageBytes != 262144 {
		t.Errorf("resolved spec not updated: %+v", tbl.Points[7].Spec)
	}
}

func TestSweepUndefinedMetricYieldsNaN(t *testing.T) {
	// No injected delay: there is no wave, so WaveSpeed has nothing to
	// track and must come back as NaN without failing the sweep.
	tbl, err := Sweep(SweepSpec{
		Base:    ScenarioSpec{Ranks: 8, Steps: 6, Machine: Simulated()},
		Axes:    []SweepAxis{RanksAxis(8)},
		Metrics: []Metric{MetricWaveSpeed(0), MetricRuntime()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(tbl.Points[0].Values[0]) {
		t.Errorf("speed without a wave = %g, want NaN", tbl.Points[0].Values[0])
	}
	if tbl.Points[0].Values[1] <= 0 {
		t.Errorf("runtime = %g, want > 0", tbl.Points[0].Values[1])
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(SweepSpec{Metrics: []Metric{MetricRuntime()}}); err == nil {
		t.Error("sweep without axes accepted")
	}
	if _, err := Sweep(SweepSpec{Axes: []SweepAxis{NoiseAxis(0)}}); err == nil {
		t.Error("sweep without metrics accepted")
	}
	if _, err := Sweep(SweepSpec{
		Axes:    []SweepAxis{{Name: "broken"}},
		Metrics: []Metric{MetricRuntime()},
	}); err == nil {
		t.Error("empty axis accepted")
	}
	// A simulation error on any grid point fails the whole sweep.
	if _, err := Sweep(SweepSpec{
		Base:    ScenarioSpec{Ranks: 0, Steps: 5},
		Axes:    []SweepAxis{NoiseAxis(0, 0.1)},
		Metrics: []Metric{MetricRuntime()},
	}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestSweepEmitters(t *testing.T) {
	tbl, err := Sweep(SweepSpec{
		Base: ScenarioSpec{
			Ranks: 10, Steps: 8,
			Machine: Simulated(),
			Delay:   []Injection{Inject(5, 1, 12*time.Millisecond)},
		},
		Axes:    []SweepAxis{DistanceAxis(1, 2), DirectionAxis(Unidirectional, Bidirectional)},
		Metrics: []Metric{MetricTotalIdle()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines = %d, want header + 4 rows:\n%s", len(lines), csv.String())
	}
	if lines[0] != "d,direction,total_idle_s" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,unidirectional,") {
		t.Errorf("CSV row 1 = %q", lines[1])
	}

	var jsn strings.Builder
	if err := tbl.WriteJSON(&jsn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsn.String(), `"direction": "bidirectional"`) {
		t.Errorf("JSON missing direction field:\n%s", jsn.String())
	}
	rows := tbl.Rows()
	if len(rows) != 5 || rows[0][0] != "d" {
		t.Errorf("Rows() = %v", rows)
	}
}

// BenchmarkSweepWorkers1 is the serial baseline for the engine's
// scaling claim; compare with BenchmarkSweepWorkersMax.
func BenchmarkSweepWorkers1(b *testing.B) {
	benchSweep(b, 1)
}

// BenchmarkSweepWorkersMax runs the same fixed-seed grid with a
// GOMAXPROCS-wide pool; on an N-core runner the speedup over
// BenchmarkSweepWorkers1 is near-linear until N exceeds the grid size.
func BenchmarkSweepWorkersMax(b *testing.B) {
	benchSweep(b, 0)
}

func benchSweep(b *testing.B, workers int) {
	spec := dampingSweep(workers)
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSweepSharedProgramsMatchSimulate pins that points sharing a
// program set (programShare) compute what a lone Simulate of the same
// resolved spec computes: a grid whose seed and noise axes keep the
// programs and whose delay and topology axes change them, with two
// workers racing over the shared slot.
func TestSweepSharedProgramsMatchSimulate(t *testing.T) {
	ring, err := NewChain(12, 1, Bidirectional, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.Torus2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	topos := []Topology{ring, torus}
	delays := [][]Injection{{Inject(3, 1, 10*time.Millisecond)}, {Inject(3, 1, 10*time.Millisecond), Inject(5, 2, time.Millisecond)}}
	spec := SweepSpec{
		Base: ScenarioSpec{Steps: 8, Machine: Emmy()},
		Axes: []SweepAxis{
			{Name: "topo", Labels: []string{"ring", "torus"}, Apply: func(s *ScenarioSpec, i int) { s.Topology = topos[i] }},
			{Name: "delay", Labels: []string{"one", "two"}, Apply: func(s *ScenarioSpec, i int) { s.Delay = delays[i] }},
			NoiseAxis(0, 0.05),
			SeedAxis(1, 2, 3),
		},
		Metrics: []Metric{MetricTotalIdle(), MetricRuntime(), MetricEvents()},
		Workers: 2,
	}
	tbl, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tbl.Points {
		res, err := Simulate(pt.Spec)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{res.TotalIdle(), res.End, float64(res.Events)}
		for i, v := range pt.Values {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Errorf("point %v: %s = %v, lone Simulate gives %v", pt.Labels, tbl.Header[len(pt.Labels)+i], v, want[i])
			}
		}
	}
}

// TestSameBulk pins which workloads share programs: equal chains and
// grids match; a different field, a different injection list or a
// topology outside the built-in chain and grid never does.
func TestSameBulk(t *testing.T) {
	chain := topology.Chain{N: 8, D: 1, Dir: Bidirectional, Bound: Periodic}
	grid, err := topology.Torus2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	gridCopy, err := topology.Torus2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := workload.BulkSync{Topo: chain, Steps: 4, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []Injection{Inject(1, 1, time.Millisecond)}}
	with := func(f func(*workload.BulkSync)) workload.BulkSync {
		b := base
		b.Injections = slices.Clone(base.Injections)
		f(&b)
		return b
	}
	cases := []struct {
		name string
		b    workload.BulkSync
		same bool
	}{
		{"equal chain", with(func(*workload.BulkSync) {}), true},
		{"steps", with(func(b *workload.BulkSync) { b.Steps++ }), false},
		{"texec", with(func(b *workload.BulkSync) { b.Texec *= 2 }), false},
		{"bytes", with(func(b *workload.BulkSync) { b.Bytes++ }), false},
		{"membytes", with(func(b *workload.BulkSync) { b.MemBytes = 1 }), false},
		{"injection", with(func(b *workload.BulkSync) { b.Injections[0].Rank = 2 }), false},
		{"no injection", with(func(b *workload.BulkSync) { b.Injections = nil }), false},
		{"other chain", with(func(b *workload.BulkSync) { b.Topo = topology.Chain{N: 8, D: 1, Dir: Bidirectional, Bound: Open} }), false},
		{"grid vs chain", with(func(b *workload.BulkSync) { b.Topo = grid }), false},
		{"custom topology", with(func(b *workload.BulkSync) { b.Topo = customTopo{chain} }), false},
	}
	for _, tc := range cases {
		if got := sameBulk(base, tc.b); got != tc.same {
			t.Errorf("%s: sameBulk = %v, want %v", tc.name, got, tc.same)
		}
	}
	g1, g2 := base, base
	g1.Topo, g2.Topo = grid, gridCopy
	if !sameBulk(g1, g2) {
		t.Error("equal grids built apart do not share")
	}
	if c := (customTopo{chain}); sameBulk(with(func(b *workload.BulkSync) { b.Topo = c }), with(func(b *workload.BulkSync) { b.Topo = c })) {
		t.Error("a custom topology shares programs")
	}
}

// TestSameBulkComparesEveryField fails when BulkSync or Grid gains a
// field: sameBulk and sameTopology compare the fields one by one, so a
// new one must be added there (and to TestSameBulk) before points that
// differ only in it could be handed each other's programs. Chain is
// compared with ==, which covers any field it gains.
func TestSameBulkComparesEveryField(t *testing.T) {
	for _, c := range []struct {
		typ      reflect.Type
		compared []string
	}{
		{reflect.TypeOf(workload.BulkSync{}), []string{"Topo", "Steps", "Texec", "MemBytes", "Bytes", "Injections"}},
		{reflect.TypeOf(topology.Grid{}), []string{"Extents", "D", "Dir", "Bounds"}},
	} {
		var fields []string
		for i := 0; i < c.typ.NumField(); i++ {
			fields = append(fields, c.typ.Field(i).Name)
		}
		if !slices.Equal(fields, c.compared) {
			t.Errorf("%v has fields %v; sameBulk compares %v", c.typ, fields, c.compared)
		}
	}
}

// customTopo is a topology type outside the built-in chain and grid.
type customTopo struct{ topology.Chain }
