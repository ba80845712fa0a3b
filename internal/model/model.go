// Package model collects the paper's analytic performance models:
//
//   - Eq. 1 — the optimistic non-overlapping execution+communication
//     runtime model for the strong-scaling STREAM triad benchmark;
//   - Eq. 2 — the silent-system idle-wave propagation speed (also exposed
//     via internal/wave.SilentSpeed);
//   - a minimal Roofline model for node-level execution phases.
//
// These functions are the "red lines" plotted against simulation results
// in the figure reproductions.
package model

import (
	"fmt"

	"repro/internal/sim"
)

// StrongScaling is the Eq. 1 model for a bulk-synchronous memory-bound
// benchmark in a strong-scaling scenario: per time step each socket
// streams its share of the working set, then every process exchanges
// fixed-size messages with its neighbors.
type StrongScaling struct {
	// WorkingSet is the total data volume per time step in bytes (V_mem).
	WorkingSet float64
	// MemBandwidth is the per-socket memory bandwidth in bytes/s (b_mem).
	MemBandwidth float64
	// MessageBytes is the per-neighbor message volume in bytes (V_net).
	MessageBytes float64
	// NetBandwidth is the asymptotic network bandwidth in bytes/s (b_net).
	NetBandwidth float64
	// FlopsPerElement and BytesPerElement convert runtime to flop/s
	// performance (STREAM triad: 2 flops, 24 bytes traffic per element
	// with write-allocate, 16 bytes of loaded data counted here as in the
	// paper's 1.2 GB / 5e7-element setup).
	FlopsPerElement float64
	BytesPerElement float64
}

// Validate checks the model parameters.
func (m StrongScaling) Validate() error {
	if m.WorkingSet <= 0 || m.MemBandwidth <= 0 || m.NetBandwidth <= 0 {
		return fmt.Errorf("model: non-positive StrongScaling parameter")
	}
	if m.MessageBytes < 0 {
		return fmt.Errorf("model: negative message volume")
	}
	if m.FlopsPerElement <= 0 || m.BytesPerElement <= 0 {
		return fmt.Errorf("model: non-positive element conversion")
	}
	return nil
}

// StepTime returns Eq. 1: T(n) = V_mem/(n*b_mem) + 2*V_net/b_net for n
// sockets. The factor 2 accounts for the send and receive volumes of the
// bidirectional ring exchange.
func (m StrongScaling) StepTime(sockets int) sim.Time {
	return m.ExecTime(sockets) + m.CommTime()
}

// ExecTime is the execution-only part of Eq. 1.
func (m StrongScaling) ExecTime(sockets int) sim.Time {
	return sim.Time(m.WorkingSet / (float64(sockets) * m.MemBandwidth))
}

// CommTime is the communication-only part of Eq. 1.
func (m StrongScaling) CommTime() sim.Time {
	return sim.Time(2 * m.MessageBytes / m.NetBandwidth)
}

// Elements returns the number of array elements in the working set.
func (m StrongScaling) Elements() float64 { return m.WorkingSet / m.BytesPerElement }

// Performance converts a per-step runtime into flop/s.
func (m StrongScaling) Performance(stepTime sim.Time) float64 {
	if stepTime <= 0 {
		return 0
	}
	return m.Elements() * m.FlopsPerElement / float64(stepTime)
}

// PredictedPerformance returns the Eq. 1 total performance P(n) in flop/s.
func (m StrongScaling) PredictedPerformance(sockets int) float64 {
	return m.Performance(m.StepTime(sockets))
}

// PredictedExecPerformance returns the execution-only model performance.
func (m StrongScaling) PredictedExecPerformance(sockets int) float64 {
	return m.Performance(m.ExecTime(sockets))
}

// PaperTriad returns the exact parameters of the paper's Fig. 1 setup:
// 1.2 GB working set (5e7 double elements at 24 B/element of memory
// traffic for A(:)=B(:)+s*C(:) with write-allocate), 2 MB messages,
// 40 GB/s per socket, 3 GB/s network, 2 flops per element.
func PaperTriad() StrongScaling {
	return StrongScaling{
		WorkingSet:      1.2e9,
		MemBandwidth:    40e9,
		MessageBytes:    2e6,
		NetBandwidth:    3e9,
		FlopsPerElement: 2,
		BytesPerElement: 24,
	}
}

// Roofline is the classic two-bound node performance model.
type Roofline struct {
	PeakFlops    float64 // flop/s per socket
	MemBandwidth float64 // bytes/s per socket
}

// Performance returns min(peak, intensity*bandwidth) for an arithmetic
// intensity in flop/byte.
func (r Roofline) Performance(intensity float64) float64 {
	if intensity < 0 {
		return 0
	}
	mem := intensity * r.MemBandwidth
	if mem < r.PeakFlops {
		return mem
	}
	return r.PeakFlops
}

// DividePhase models the paper's Fig. 3 compute-bound workload: a long
// chain of dependent double-precision divides whose throughput is exactly
// one instruction per DivideCycles clock cycles.
type DividePhase struct {
	Instructions int
	DivideCycles int     // 28 on Ivy Bridge, 16 on Broadwell
	ClockHz      float64 // 2.2e9 on both test systems
}

// Duration returns the exact execution time of the phase — the known
// baseline against which noise-induced deviations are measured.
func (d DividePhase) Duration() (sim.Time, error) {
	if d.Instructions <= 0 || d.DivideCycles <= 0 || d.ClockHz <= 0 {
		return 0, fmt.Errorf("model: invalid divide phase %+v", d)
	}
	return sim.Time(float64(d.Instructions*d.DivideCycles) / d.ClockHz), nil
}

// InstructionsFor returns the instruction count that makes the phase last
// the target duration (the paper uses 3 ms phases).
func (d DividePhase) InstructionsFor(target sim.Time) (int, error) {
	if d.DivideCycles <= 0 || d.ClockHz <= 0 {
		return 0, fmt.Errorf("model: invalid divide phase %+v", d)
	}
	if target <= 0 {
		return 0, fmt.Errorf("model: non-positive target duration %v", target)
	}
	return int(float64(target) * d.ClockHz / float64(d.DivideCycles)), nil
}
