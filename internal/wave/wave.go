// Package wave analyzes simulated traces for idle-wave phenomena: it
// extracts idle periods, tracks wave fronts emanating from injected
// delays, measures propagation speed (to validate Eq. 2 of the paper),
// fits decay rates under noise (Fig. 8), and quantifies wave interaction
// and cancellation (Fig. 6) and runtime excess (Fig. 9).
//
// Front tracking is organized around the topology's hop metric: ranks
// are grouped into hop-distance shells around the injection rank (rank
// pairs on a chain, Manhattan-ball surfaces on a grid or torus), so
// reach, speed and decay extraction work unchanged on one-dimensional
// chains and multi-dimensional grids.
package wave

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// FrontSample is the wave front's first arrival at one rank.
type FrontSample struct {
	Rank      int
	Hops      int // topology hop distance from the injection rank
	Arrival   sim.Time
	Amplitude sim.Time // idle duration when the front arrived
}

// Front describes a tracked idle-wave front.
type Front struct {
	Source  int
	Samples []FrontSample // ordered by hop count
}

// TrackFront follows the idle wave emanating from the given source rank:
// for every other rank it records the first idle period longer than
// threshold. Hop distance comes from the topology's own metric — the
// minimal chain distance on chains (honoring periodicity), the Manhattan
// distance on grids and tori — so the front is organized into the
// hop-distance shells the wave expands through. The source rank itself
// is excluded: under eager protocols it never idles, and ranks the
// metric reports unreachable (negative distance, e.g. across job-mix
// blocks) are skipped — no wave reaches them.
func TrackFront(set trace.Set, topo topology.Topology, source int, threshold sim.Time) Front {
	f := Front{Source: source}
	for _, rt := range set.Ranks {
		if rt.Rank == source {
			continue
		}
		hops := topo.HopDistance(source, rt.Rank)
		if hops < 0 {
			continue
		}
		for _, seg := range rt.Segments {
			if seg.Kind == trace.Wait && seg.Duration() > threshold {
				f.Samples = append(f.Samples, FrontSample{
					Rank:      rt.Rank,
					Hops:      hops,
					Arrival:   seg.Start,
					Amplitude: seg.Duration(),
				})
				break
			}
		}
	}
	sort.Slice(f.Samples, func(i, j int) bool {
		if f.Samples[i].Hops != f.Samples[j].Hops {
			return f.Samples[i].Hops < f.Samples[j].Hops
		}
		return f.Samples[i].Rank < f.Samples[j].Rank
	})
	return f
}

// TrackFrontDirected follows an idle wave that travels only in the
// topology's send direction (the eager-mode unidirectional case, where
// no wave ever runs against the send direction): hop distance is the
// topology's directed metric — the forward ring distance on a periodic
// chain, the forward per-dimension Manhattan distance on a torus.
// Ranks unreachable along the send direction are skipped.
func TrackFrontDirected(set trace.Set, topo topology.Directed, source int, threshold sim.Time) Front {
	f := Front{Source: source}
	for _, rt := range set.Ranks {
		if rt.Rank == source {
			continue
		}
		hops := topo.DirectedHopDistance(source, rt.Rank)
		if hops < 0 {
			continue
		}
		for _, seg := range rt.Segments {
			if seg.Kind == trace.Wait && seg.Duration() > threshold {
				f.Samples = append(f.Samples, FrontSample{
					Rank:      rt.Rank,
					Hops:      hops,
					Arrival:   seg.Start,
					Amplitude: seg.Duration(),
				})
				break
			}
		}
	}
	sort.Slice(f.Samples, func(i, j int) bool {
		if f.Samples[i].Hops != f.Samples[j].Hops {
			return f.Samples[i].Hops < f.Samples[j].Hops
		}
		return f.Samples[i].Rank < f.Samples[j].Rank
	})
	return f
}

// TrackFrontForward follows an idle wave that travels only in the
// direction of increasing rank around a ring (the unidirectional
// eager-mode case, Figs. 4/5a/5b): hop distance is (rank - source) mod n,
// not the minimal ring distance. It is the chain-specialized equivalent
// of TrackFrontDirected, kept for consumers that have only a trace set.
func TrackFrontForward(set trace.Set, source int, threshold sim.Time) Front {
	n := len(set.Ranks)
	f := Front{Source: source}
	for _, rt := range set.Ranks {
		if rt.Rank == source {
			continue
		}
		for _, seg := range rt.Segments {
			if seg.Kind == trace.Wait && seg.Duration() > threshold {
				hops := ((rt.Rank-source)%n + n) % n
				f.Samples = append(f.Samples, FrontSample{
					Rank:      rt.Rank,
					Hops:      hops,
					Arrival:   seg.Start,
					Amplitude: seg.Duration(),
				})
				break
			}
		}
	}
	sort.Slice(f.Samples, func(i, j int) bool {
		if f.Samples[i].Hops != f.Samples[j].Hops {
			return f.Samples[i].Hops < f.Samples[j].Hops
		}
		return f.Samples[i].Rank < f.Samples[j].Rank
	})
	return f
}

// Reach returns the maximum hop distance the front arrived at.
func (f Front) Reach() int {
	max := 0
	for _, s := range f.Samples {
		if s.Hops > max {
			max = s.Hops
		}
	}
	return max
}

// ShellArrivals returns the front's first arrival time per hop-distance
// shell, indexed by hop count (index 0, the source's own shell, is
// always zero-valued). Shells the front never reached hold -1. On a
// healthy expanding wave — chain or torus — the arrivals grow
// monotonically with hop distance.
func (f Front) ShellArrivals() []sim.Time {
	out := make([]sim.Time, f.Reach()+1)
	seen := make([]bool, f.Reach()+1)
	for _, s := range f.Samples {
		if !seen[s.Hops] || s.Arrival < out[s.Hops] {
			out[s.Hops] = s.Arrival
			seen[s.Hops] = true
		}
	}
	for h := 1; h < len(out); h++ {
		if !seen[h] {
			out[h] = -1
		}
	}
	return out
}

// SpeedResult is a propagation-speed measurement.
type SpeedResult struct {
	RanksPerSecond float64
	R2             float64
	Samples        int
}

// Speed fits hop distance against front arrival time, yielding the wave
// propagation speed in ranks per second (the paper's v). It requires at
// least three front samples.
func Speed(f Front) (SpeedResult, error) {
	if len(f.Samples) < 3 {
		return SpeedResult{}, fmt.Errorf("wave: need >= 3 front samples, have %d", len(f.Samples))
	}
	xs := make([]float64, len(f.Samples))
	ys := make([]float64, len(f.Samples))
	for i, s := range f.Samples {
		xs[i] = float64(s.Arrival)
		ys[i] = float64(s.Hops)
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return SpeedResult{}, fmt.Errorf("wave: speed fit: %w", err)
	}
	return SpeedResult{RanksPerSecond: fit.B, R2: fit.R2, Samples: len(f.Samples)}, nil
}

// DecayResult is an idle-wave decay measurement.
type DecayResult struct {
	// RatePerRank is the paper's beta: how much idle-wave amplitude is
	// lost per rank of propagation (seconds per rank, positive = decay).
	RatePerRank sim.Time
	// InitialAmplitude is the fitted amplitude at hop 0.
	InitialAmplitude sim.Time
	// SurvivalHops is the largest hop distance at which the wave still
	// exceeded the detection threshold.
	SurvivalHops int
	R2           float64
}

// Decay fits the front's amplitude against hop distance. A noise-free
// system yields a rate near zero (the wave propagates without damping);
// noise produces a positive rate (Fig. 8).
func Decay(f Front) (DecayResult, error) {
	if len(f.Samples) < 3 {
		return DecayResult{}, fmt.Errorf("wave: need >= 3 front samples, have %d", len(f.Samples))
	}
	xs := make([]float64, len(f.Samples))
	ys := make([]float64, len(f.Samples))
	for i, s := range f.Samples {
		xs[i] = float64(s.Hops)
		ys[i] = float64(s.Amplitude)
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return DecayResult{}, fmt.Errorf("wave: decay fit: %w", err)
	}
	return DecayResult{
		RatePerRank:      sim.Time(-fit.B),
		InitialAmplitude: sim.Time(fit.A),
		SurvivalHops:     f.Reach(),
		R2:               fit.R2,
	}, nil
}

// TotalIdleByStep sums wait time across ranks for each step — the
// aggregate "wave energy" per step, which drops to (near) zero when waves
// cancel or decay away.
func TotalIdleByStep(set trace.Set) []sim.Time {
	w := set.WaitMatrix()
	steps := set.Steps()
	out := make([]sim.Time, steps)
	for _, row := range w {
		for s, v := range row {
			out[s] += v
		}
	}
	return out
}

// QuietStep returns the first step from which on no rank ever waits
// longer than threshold, or -1 if the system never quiets down. This
// pinpoints when interacting waves have fully cancelled (Fig. 6a).
func QuietStep(set trace.Set, threshold sim.Time) int {
	w := set.WaitMatrix()
	steps := set.Steps()
	quietFrom := steps
	for s := steps - 1; s >= 0; s-- {
		loud := false
		for r := range w {
			if w[r][s] > threshold {
				loud = true
				break
			}
		}
		if loud {
			break
		}
		quietFrom = s
	}
	if quietFrom == steps {
		return -1
	}
	return quietFrom
}

// WaveCount returns the number of contiguous groups of idling ranks at
// the given step (wrap-aware): simultaneous idle waves appear as separate
// groups until they merge or cancel.
func WaveCount(set trace.Set, step int, wrap bool, threshold sim.Time) int {
	w := set.WaitMatrix()
	n := len(w)
	if n == 0 || step < 0 || step >= set.Steps() {
		return 0
	}
	idle := make([]bool, n)
	anyIdle := false
	allIdle := true
	for r := range w {
		idle[r] = w[r][step] > threshold
		anyIdle = anyIdle || idle[r]
		allIdle = allIdle && idle[r]
	}
	if !anyIdle {
		return 0
	}
	if allIdle {
		return 1
	}
	count := 0
	for r := 0; r < n; r++ {
		prev := r - 1
		if prev < 0 {
			if wrap {
				prev = n - 1
			} else {
				if idle[r] {
					count++
				}
				continue
			}
		}
		if idle[r] && !idle[prev] {
			count++
		}
	}
	return count
}

// Excess compares a perturbed run against a baseline: the extra wall-clock
// time attributable to the injected delay. On a silent system it is close
// to the injected delay; with enough noise it vanishes (Fig. 9).
func Excess(perturbed, baseline trace.Set) sim.Time {
	return perturbed.End() - baseline.End()
}

// MeanLag compares two runs of the same program (with identical noise)
// and returns the mean, over ranks, of how much later the perturbed run
// finished its final common step. After an idle wave has swept the whole
// ring, every rank is late by the wave's residual amplitude, so the mean
// lag measures the surviving wave directly — with far less variance than
// the difference of the two runs' makespans.
func MeanLag(perturbed, baseline trace.Set) sim.Time {
	steps := perturbed.Steps()
	if s := baseline.Steps(); s < steps {
		steps = s
	}
	if steps == 0 || len(perturbed.Ranks) == 0 || len(perturbed.Ranks) != len(baseline.Ranks) {
		return 0
	}
	last := steps - 1
	var sum sim.Time
	for i := range perturbed.Ranks {
		sum += perturbed.Ranks[i].StepEnd[last] - baseline.Ranks[i].StepEnd[last]
	}
	return sum / sim.Time(len(perturbed.Ranks))
}

// SilentSpeed is Eq. 2 of the paper: the idle-wave propagation speed on a
// noise-free homogeneous system, in ranks per second.
//
//	v_silent = sigma*d / (Texec + Tcomm)
//
// where sigma is 2 for bidirectional rendezvous communication and 1
// otherwise, and d is the largest neighbor distance.
func SilentSpeed(sigma, d int, texec, tcomm sim.Time) float64 {
	return float64(sigma*d) / float64(texec+tcomm)
}

// Sigma returns the paper's sigma factor for a communication mode.
func Sigma(bidirectional, rendezvous bool) int {
	if bidirectional && rendezvous {
		return 2
	}
	return 1
}

// RelativeError returns |measured-predicted|/predicted, a helper for
// model-validation tables.
func RelativeError(measured, predicted float64) float64 {
	if predicted == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(measured-predicted) / math.Abs(predicted)
}
