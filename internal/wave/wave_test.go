package wave

import (
	"math"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// synthWave builds a synthetic trace set with a wave starting at the
// source, moving outward one rank per step of length period, with idle
// amplitude amp(hops).
func synthWave(n, source, steps int, period sim.Time, amp func(hops int) sim.Time) trace.Set {
	traces := make([]trace.RankTrace, 0, n)
	for r := 0; r < n; r++ {
		rec := trace.NewRecorder(r)
		hops := r - source
		if hops < 0 {
			hops = -hops
		}
		t := sim.Time(0)
		for s := 0; s < steps; s++ {
			execEnd := t + period
			rec.Add(trace.Exec, t, execEnd, s)
			t = execEnd
			if r != source && s == hops && amp(hops) > 0 {
				rec.Add(trace.Wait, t, t+amp(hops), s)
				t += amp(hops)
			}
			rec.EndStep(s, t)
		}
		traces = append(traces, rec.Trace())
	}
	return trace.NewSet(traces)
}

var period = sim.Milli(3)

// openChain and ring build the 1-D topologies the synthetic-trace tests
// track fronts on.
func openChain(n int) topology.Chain {
	return topology.Chain{N: n, D: 1, Dir: topology.Bidirectional, Bound: topology.Open}
}

func ring(n int) topology.Chain {
	return topology.Chain{N: n, D: 1, Dir: topology.Bidirectional, Bound: topology.Periodic}
}

func TestTrackFrontHopsAndAmplitude(t *testing.T) {
	set := synthWave(9, 4, 9, period, func(h int) sim.Time { return sim.Milli(10) })
	f := TrackFront(set, openChain(9), 4, sim.Milli(1))
	if f.Source != 4 {
		t.Errorf("source = %d", f.Source)
	}
	if len(f.Samples) != 8 {
		t.Fatalf("samples = %d, want 8", len(f.Samples))
	}
	// Ranks 3 and 5 are both at hop 1.
	if f.Samples[0].Hops != 1 || f.Samples[1].Hops != 1 {
		t.Errorf("first samples hops = %d,%d, want 1,1", f.Samples[0].Hops, f.Samples[1].Hops)
	}
	if f.Samples[0].Amplitude != sim.Milli(10) {
		t.Errorf("amplitude = %v", f.Samples[0].Amplitude)
	}
	if f.Reach() != 4 {
		t.Errorf("Reach = %d, want 4", f.Reach())
	}
}

func TestTrackFrontPeriodicWrap(t *testing.T) {
	set := synthWave(10, 0, 10, period, func(h int) sim.Time { return sim.Milli(5) })
	wrapped := TrackFront(set, ring(10), 0, sim.Milli(1))
	for _, s := range wrapped.Samples {
		if s.Hops > 5 {
			t.Errorf("rank %d hop distance %d exceeds n/2 with wrap", s.Rank, s.Hops)
		}
	}
	open := TrackFront(set, openChain(10), 0, sim.Milli(1))
	if open.Reach() != 9 {
		t.Errorf("open reach = %d, want 9", open.Reach())
	}
}

func TestSpeedOnSyntheticWave(t *testing.T) {
	// One rank per period: v = 1/period ranks/s.
	set := synthWave(12, 0, 12, period, func(h int) sim.Time { return sim.Milli(9) })
	f := TrackFront(set, openChain(12), 0, sim.Milli(1))
	res, err := Speed(f)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(period)
	if math.Abs(res.RanksPerSecond-want)/want > 0.05 {
		t.Errorf("speed = %g ranks/s, want ~%g", res.RanksPerSecond, want)
	}
	if res.R2 < 0.99 {
		t.Errorf("R2 = %g", res.R2)
	}
}

func TestSpeedNeedsSamples(t *testing.T) {
	set := synthWave(2, 0, 3, period, func(h int) sim.Time { return sim.Milli(5) })
	f := TrackFront(set, openChain(2), 0, sim.Milli(1))
	if _, err := Speed(f); err == nil {
		t.Error("speed with <3 samples accepted")
	}
}

func TestDecayFitsLinearAmplitudeLoss(t *testing.T) {
	// Amplitude drops 1 ms per hop from 10 ms.
	beta := sim.Milli(1)
	set := synthWave(11, 0, 12, period, func(h int) sim.Time {
		a := sim.Milli(10) - sim.Time(h)*beta
		if a < 0 {
			return 0
		}
		return a
	})
	f := TrackFront(set, openChain(11), 0, sim.Micro(100))
	res, err := Decay(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.RatePerRank-beta))/float64(beta) > 0.05 {
		t.Errorf("decay rate = %v/rank, want ~%v", res.RatePerRank, beta)
	}
	if math.Abs(float64(res.InitialAmplitude-sim.Milli(10)))/float64(sim.Milli(10)) > 0.1 {
		t.Errorf("initial amplitude = %v, want ~10ms", res.InitialAmplitude)
	}
	if res.SurvivalHops > 10 || res.SurvivalHops < 8 {
		t.Errorf("survival hops = %d, want ~9", res.SurvivalHops)
	}
}

func TestDecayZeroOnUndampedWave(t *testing.T) {
	set := synthWave(11, 0, 12, period, func(h int) sim.Time { return sim.Milli(10) })
	f := TrackFront(set, openChain(11), 0, sim.Milli(1))
	res, err := Decay(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.RatePerRank)) > float64(sim.Micro(10)) {
		t.Errorf("undamped wave decay rate = %v, want ~0", res.RatePerRank)
	}
}

func TestTotalIdleByStepAndQuietStep(t *testing.T) {
	set := synthWave(6, 0, 10, period, func(h int) sim.Time { return sim.Milli(4) })
	idle := TotalIdleByStep(set)
	if len(idle) != 10 {
		t.Fatalf("idle vector length %d", len(idle))
	}
	// Wave visits hop h at step h; last visit at step 5.
	if idle[3] != sim.Milli(4) {
		t.Errorf("idle[3] = %v, want 4ms", idle[3])
	}
	if idle[7] != 0 {
		t.Errorf("idle[7] = %v, want 0", idle[7])
	}
	q := QuietStep(set, sim.Milli(1))
	if q != 6 {
		t.Errorf("QuietStep = %d, want 6", q)
	}
}

func TestQuietStepNeverQuiet(t *testing.T) {
	// Idle at the last step -> never quiets.
	n, steps := 4, 5
	traces := make([]trace.RankTrace, 0, n)
	for r := 0; r < n; r++ {
		rec := trace.NewRecorder(r)
		t0 := sim.Time(0)
		for s := 0; s < steps; s++ {
			rec.Add(trace.Exec, t0, t0+period, s)
			t0 += period
			if s == steps-1 {
				rec.Add(trace.Wait, t0, t0+sim.Milli(5), s)
				t0 += sim.Milli(5)
			}
			rec.EndStep(s, t0)
		}
		traces = append(traces, rec.Trace())
	}
	set := trace.NewSet(traces)
	if q := QuietStep(set, sim.Milli(1)); q != -1 {
		t.Errorf("QuietStep = %d, want -1", q)
	}
}

func TestWaveCount(t *testing.T) {
	// Build a step with two separate idle groups on 10 ranks:
	// ranks 1-2 and 6-7 idle at step 0.
	traces := make([]trace.RankTrace, 0, 10)
	for r := 0; r < 10; r++ {
		rec := trace.NewRecorder(r)
		rec.Add(trace.Exec, 0, period, 0)
		end := period
		if r == 1 || r == 2 || r == 6 || r == 7 {
			rec.Add(trace.Wait, period, period+sim.Milli(5), 0)
			end += sim.Milli(5)
		}
		rec.EndStep(0, end)
		traces = append(traces, rec.Trace())
	}
	set := trace.NewSet(traces)
	if got := WaveCount(set, 0, false, sim.Milli(1)); got != 2 {
		t.Errorf("WaveCount = %d, want 2", got)
	}
	if got := WaveCount(set, 0, true, sim.Milli(1)); got != 2 {
		t.Errorf("wrapped WaveCount = %d, want 2", got)
	}
	if got := WaveCount(set, 3, false, sim.Milli(1)); got != 0 {
		t.Errorf("out-of-range step WaveCount = %d", got)
	}
}

func TestWaveCountWrapMergesEdgeGroups(t *testing.T) {
	// Ranks 0 and 9 idle: open chain sees two groups, ring sees one.
	traces := make([]trace.RankTrace, 0, 10)
	for r := 0; r < 10; r++ {
		rec := trace.NewRecorder(r)
		rec.Add(trace.Exec, 0, period, 0)
		end := period
		if r == 0 || r == 9 {
			rec.Add(trace.Wait, period, period+sim.Milli(5), 0)
			end += sim.Milli(5)
		}
		rec.EndStep(0, end)
		traces = append(traces, rec.Trace())
	}
	set := trace.NewSet(traces)
	if got := WaveCount(set, 0, false, sim.Milli(1)); got != 2 {
		t.Errorf("open WaveCount = %d, want 2", got)
	}
	if got := WaveCount(set, 0, true, sim.Milli(1)); got != 1 {
		t.Errorf("ring WaveCount = %d, want 1", got)
	}
}

func TestWaveCountAllIdle(t *testing.T) {
	traces := make([]trace.RankTrace, 0, 4)
	for r := 0; r < 4; r++ {
		rec := trace.NewRecorder(r)
		rec.Add(trace.Wait, 0, sim.Milli(5), 0)
		rec.EndStep(0, sim.Milli(5))
		traces = append(traces, rec.Trace())
	}
	set := trace.NewSet(traces)
	if got := WaveCount(set, 0, true, sim.Milli(1)); got != 1 {
		t.Errorf("all-idle WaveCount = %d, want 1", got)
	}
}

func TestSilentSpeedAndSigma(t *testing.T) {
	if Sigma(true, true) != 2 {
		t.Error("bidirectional rendezvous sigma != 2")
	}
	if Sigma(true, false) != 1 || Sigma(false, true) != 1 || Sigma(false, false) != 1 {
		t.Error("non-(bi+rendezvous) sigma != 1")
	}
	v := SilentSpeed(2, 3, sim.Milli(2), sim.Milli(1))
	if math.Abs(v-2000) > 1e-9 {
		t.Errorf("SilentSpeed = %g, want 2000 ranks/s", v)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Error("RelativeError basic")
	}
	if RelativeError(0, 0) != 0 {
		t.Error("RelativeError 0/0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("RelativeError x/0")
	}
}

func TestExcess(t *testing.T) {
	a := synthWave(4, 0, 5, period, func(h int) sim.Time { return sim.Milli(6) })
	b := synthWave(4, 0, 5, period, func(h int) sim.Time { return 0 })
	if got := Excess(a, b); math.Abs(float64(got-sim.Milli(6))) > 1e-12 {
		t.Errorf("Excess = %v, want 6ms", got)
	}
}

// End-to-end: measured speed on a real simulation matches Eq. 2 for all
// four sigma/d combinations.
func TestEq2EndToEnd(t *testing.T) {
	texec := sim.Milli(1)
	cases := []struct {
		name  string
		d     int
		dir   topology.Direction
		bytes int
		sigma int
	}{
		{"eager-bi-d1", 1, topology.Bidirectional, 8192, 1},
		{"rendezvous-uni-d1", 1, topology.Unidirectional, 1 << 17, 1},
		{"rendezvous-bi-d1", 1, topology.Bidirectional, 1 << 17, 2},
		{"rendezvous-bi-d2", 2, topology.Bidirectional, 1 << 17, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 31
			c, err := topology.NewChain(n, tc.d, tc.dir, topology.Open)
			if err != nil {
				t.Fatal(err)
			}
			net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17-1)
			if err != nil {
				t.Fatal(err)
			}
			src := n / 2
			progs := make([]mpisim.Program, n)
			steps := 18
			for i := 0; i < n; i++ {
				var p mpisim.Program
				for s := 0; s < steps; s++ {
					if i == src && s == 1 {
						p = append(p, mpisim.Delay{Duration: 6 * texec, Step: s})
					}
					p = append(p, mpisim.Compute{Duration: texec, Step: s})
					for _, to := range c.SendTargets(i) {
						p = append(p, mpisim.Isend{To: to, Bytes: tc.bytes, Tag: s})
					}
					for _, from := range c.RecvSources(i) {
						p = append(p, mpisim.Irecv{From: from, Bytes: tc.bytes, Tag: s})
					}
					p = append(p, mpisim.Waitall{Step: s})
				}
				progs[i] = p
			}
			res, err := mpisim.Run(mpisim.Config{Ranks: n, Net: net}, progs)
			if err != nil {
				t.Fatal(err)
			}
			f := TrackFront(res.Traces, c, src, texec/2)
			sp, err := Speed(f)
			if err != nil {
				t.Fatal(err)
			}
			tcomm := float64(sim.Micro(2)) + float64(tc.bytes)/3e9
			want := SilentSpeed(tc.sigma, tc.d, texec, sim.Time(tcomm))
			if RelativeError(sp.RanksPerSecond, want) > 0.15 {
				t.Errorf("measured %g ranks/s, Eq.2 predicts %g (err %.1f%%)",
					sp.RanksPerSecond, want, 100*RelativeError(sp.RanksPerSecond, want))
			}
		})
	}
}
