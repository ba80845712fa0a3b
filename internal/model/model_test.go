package model

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestPaperTriadValid(t *testing.T) {
	if err := PaperTriad().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrongScalingValidate(t *testing.T) {
	bad := []func(*StrongScaling){
		func(m *StrongScaling) { m.WorkingSet = 0 },
		func(m *StrongScaling) { m.MemBandwidth = 0 },
		func(m *StrongScaling) { m.NetBandwidth = -1 },
		func(m *StrongScaling) { m.MessageBytes = -1 },
		func(m *StrongScaling) { m.FlopsPerElement = 0 },
		func(m *StrongScaling) { m.BytesPerElement = 0 },
	}
	for i, mut := range bad {
		m := PaperTriad()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEq1Arithmetic(t *testing.T) {
	m := PaperTriad()
	// One socket: 1.2GB / 40GB/s = 30 ms exec; 2*2MB/3GB/s = 1.333 ms comm.
	exec := float64(m.ExecTime(1))
	if math.Abs(exec-0.03) > 1e-12 {
		t.Errorf("ExecTime(1) = %g, want 0.03", exec)
	}
	comm := float64(m.CommTime())
	if math.Abs(comm-4e6/3e9) > 1e-15 {
		t.Errorf("CommTime = %g, want %g", comm, 4e6/3e9)
	}
	if got, want := float64(m.StepTime(1)), exec+comm; math.Abs(got-want) > 1e-15 {
		t.Errorf("StepTime = %g, want %g", got, want)
	}
	// Scaling: exec time halves with two sockets.
	if got := float64(m.ExecTime(2)); math.Abs(got-0.015) > 1e-12 {
		t.Errorf("ExecTime(2) = %g", got)
	}
}

func TestEq1Performance(t *testing.T) {
	m := PaperTriad()
	// 5e7 elements * 2 flops each.
	if got := m.Elements(); math.Abs(got-5e7) > 1 {
		t.Errorf("Elements = %g, want 5e7", got)
	}
	p1 := m.PredictedPerformance(1)
	// 1e8 flops / 31.33 ms ~= 3.19 GF/s.
	want := 1e8 / (0.03 + 4e6/3e9)
	if math.Abs(p1-want)/want > 1e-12 {
		t.Errorf("P(1) = %g, want %g", p1, want)
	}
	// Performance grows with socket count but saturates below the
	// communication-only bound.
	p9 := m.PredictedPerformance(9)
	if p9 <= p1 {
		t.Error("model performance should increase with sockets")
	}
	commBound := 1e8 / float64(m.CommTime())
	if p9 >= commBound {
		t.Errorf("P(9) = %g exceeds communication bound %g", p9, commBound)
	}
	// Execution-only model scales linearly.
	e2 := m.PredictedExecPerformance(2)
	e1 := m.PredictedExecPerformance(1)
	if math.Abs(e2-2*e1)/e1 > 1e-12 {
		t.Errorf("exec-only model not linear: %g vs 2*%g", e2, e1)
	}
	if m.Performance(0) != 0 {
		t.Error("Performance(0) should be 0")
	}
}

func TestRoofline(t *testing.T) {
	r := Roofline{PeakFlops: 100e9, MemBandwidth: 40e9}
	if got := r.Performance(1); got != 40e9 {
		t.Errorf("memory-bound perf = %g", got)
	}
	if got := r.Performance(10); got != 100e9 {
		t.Errorf("compute-bound perf = %g", got)
	}
	if r.Performance(-1) != 0 {
		t.Error("negative intensity should be 0")
	}
}

func TestDividePhase(t *testing.T) {
	// Ivy Bridge: 28 cycles/divide at 2.2 GHz.
	d := DividePhase{DivideCycles: 28, ClockHz: 2.2e9}
	n, err := d.InstructionsFor(sim.Milli(3))
	if err != nil {
		t.Fatal(err)
	}
	d.Instructions = n
	dur, err := d.Duration()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(dur-sim.Milli(3)))/float64(sim.Milli(3)) > 1e-4 {
		t.Errorf("duration = %v, want ~3ms", dur)
	}
	// Broadwell divides are faster: same instruction count runs shorter.
	bdw := DividePhase{Instructions: n, DivideCycles: 16, ClockHz: 2.2e9}
	bd, err := bdw.Duration()
	if err != nil {
		t.Fatal(err)
	}
	if bd >= dur {
		t.Error("Broadwell divide phase should be shorter")
	}
}

func TestDividePhaseErrors(t *testing.T) {
	if _, err := (DividePhase{}).Duration(); err == nil {
		t.Error("zero phase accepted")
	}
	if _, err := (DividePhase{DivideCycles: 28, ClockHz: 2.2e9}).InstructionsFor(0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := (DividePhase{}).InstructionsFor(sim.Milli(1)); err == nil {
		t.Error("invalid phase accepted")
	}
}
