package idlewave

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSimulateDefaultsAndWaveSpeed(t *testing.T) {
	res, err := Simulate(ScenarioSpec{
		Ranks: 16, Steps: 14,
		Delay:    []Injection{Inject(8, 1, 13500*time.Microsecond)},
		Boundary: Open,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.End <= 0 || res.Events == 0 {
		t.Errorf("implausible result: end=%v events=%d", res.End, res.Events)
	}
	v, err := res.WaveSpeed(8)
	if err != nil {
		t.Fatal(err)
	}
	// Default texec 3 ms, eager 8192 B: ~1 rank / 3.0x ms.
	want := PredictSpeed(false, false, 1, 3*time.Millisecond, 8*time.Microsecond)
	if math.Abs(v-want)/want > 0.1 {
		t.Errorf("speed = %.1f, predicted %.1f", v, want)
	}
}

func TestSimulateValidatesTopology(t *testing.T) {
	if _, err := Simulate(ScenarioSpec{Ranks: 0, Steps: 1}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Simulate(ScenarioSpec{Ranks: 4, Steps: 0}); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestNoiseDampsWave(t *testing.T) {
	base := ScenarioSpec{
		Ranks: 30, Steps: 40,
		Machine:   Simulated(),
		Delay:     []Injection{Inject(0, 2, 30*time.Millisecond)},
		Direction: Bidirectional,
		Boundary:  Periodic,
		Seed:      3,
	}
	silent, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	noisy := base
	noisy.NoiseLevel = 0.10
	loud, err := Simulate(noisy)
	if err != nil {
		t.Fatal(err)
	}
	dSilent, err := silent.WaveDecay(0)
	if err != nil {
		t.Fatal(err)
	}
	dNoisy, err := loud.WaveDecay(0)
	if err != nil {
		t.Fatal(err)
	}
	if dNoisy <= dSilent {
		t.Errorf("decay with noise (%g) not above silent decay (%g)", dNoisy, dSilent)
	}
}

func TestTotalIdlePositiveWithDelay(t *testing.T) {
	res, err := Simulate(ScenarioSpec{
		Ranks: 10, Steps: 10,
		Delay:    []Injection{Inject(5, 1, 9*time.Millisecond)},
		Boundary: Periodic,
		Machine:  Simulated(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIdle() <= 0 {
		t.Error("no idle time despite injected delay")
	}
}

func TestPredictSpeedEq2(t *testing.T) {
	v := PredictSpeed(true, true, 2, 3*time.Millisecond, 1*time.Millisecond)
	if math.Abs(v-1000) > 1e-9 {
		t.Errorf("PredictSpeed = %g, want 1000", v)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 12 {
		t.Fatalf("experiments = %v", ids)
	}
	out, err := RunExperiment("fig4", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "rank") {
		t.Errorf("experiment output looks wrong:\n%s", out)
	}
	if _, err := RunExperiment("nope", 1, true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestMachinesExposed(t *testing.T) {
	for _, m := range []Machine{Emmy(), Meggie(), Simulated()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestRunProcessesWithCollectives(t *testing.T) {
	res, err := RunProcesses(Simulated(), 8, 1, func(c *Comm) {
		for s := 0; s < 5; s++ {
			if c.Rank() == 2 && s == 1 {
				c.Delay(9 * time.Millisecond)
			}
			c.Compute(3 * time.Millisecond)
			c.Allreduce(8192)
			c.EndStep()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The allreduce globalizes the delay: every other rank idles ~9 ms.
	if res.TotalIdle() < 7*9e-3 {
		t.Errorf("total idle %.3f s, want ~7 ranks x 9 ms", res.TotalIdle())
	}
	if res.Traces.Steps() != 5 {
		t.Errorf("steps = %d", res.Traces.Steps())
	}
	// Error propagation through the facade.
	if _, err := RunProcesses(Machine{}, 2, 1, func(c *Comm) {
		c.Compute(-time.Second)
	}); err == nil {
		t.Error("negative compute accepted through facade")
	}
	// Topology-bound analytics degrade gracefully on process-style
	// results, which carry no topology.
	if _, err := res.WaveSpeed(2); err == nil {
		t.Error("WaveSpeed on a process-style result did not error")
	}
	if _, err := res.WaveDecay(2); err == nil {
		t.Error("WaveDecay on a process-style result did not error")
	}
	if got := res.ShellArrivals(2); got != nil {
		t.Errorf("ShellArrivals on a process-style result = %v, want nil", got)
	}
}

// TestSimulateRejectsNaNNoise pins that a NaN, infinite or negative
// noise level built in Go is an error, not a silently noise-free run.
func TestSimulateRejectsNaNNoise(t *testing.T) {
	for name, spec := range map[string]ScenarioSpec{
		"profile NaN level":   {Ranks: 8, Steps: 4, Noise: ExponentialNoise{Level: math.NaN()}},
		"profile Inf level":   {Ranks: 8, Steps: 4, Noise: ExponentialNoise{Level: math.Inf(1)}},
		"NaN NoiseLevel":      {Ranks: 8, Steps: 4, NoiseLevel: math.NaN()},
		"Inf NoiseLevel":      {Ranks: 8, Steps: 4, NoiseLevel: math.Inf(1)},
		"negative NoiseLevel": {Ranks: 8, Steps: 4, NoiseLevel: -0.1},
	} {
		if _, err := Simulate(spec); err == nil || !strings.Contains(err.Error(), "non-finite") && !strings.Contains(err.Error(), "not a finite") {
			t.Errorf("%s: Simulate = %v, want a non-finite parameter error", name, err)
		}
	}
}
