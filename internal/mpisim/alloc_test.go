package mpisim

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// allocRingPrograms builds a d=1 bidirectional ring workload for the
// allocation-budget tests.
func allocRingPrograms(n, steps int, texec sim.Time, bytes int) []Program {
	progs := make([]Program, n)
	for i := 0; i < n; i++ {
		p := make(Program, 0, 6*steps)
		l, r := (i+n-1)%n, (i+1)%n
		for s := 0; s < steps; s++ {
			p = append(p,
				Compute{Duration: texec, Step: s},
				Isend{To: l, Bytes: bytes, Tag: s}, Isend{To: r, Bytes: bytes, Tag: s},
				Irecv{From: l, Bytes: bytes, Tag: s}, Irecv{From: r, Bytes: bytes, Tag: s},
				Waitall{Step: s})
		}
		progs[i] = p
	}
	return progs
}

// allocMemPrograms is allocRingPrograms with memory-bound compute
// phases, to gate the memband path too.
func allocMemPrograms(n, steps int, memBytes float64, bytes int) []Program {
	progs := allocRingPrograms(n, steps, 0, bytes)
	for i, p := range progs {
		for pc, op := range p {
			if c, ok := op.(Compute); ok {
				c.MemBytes = memBytes
				progs[i][pc] = c
			}
		}
	}
	return progs
}

// runAllocs measures the average allocation count of one Run.
func runAllocs(t *testing.T, ranks, steps int, memBound bool) float64 {
	t.Helper()
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	var progs []Program
	cfg := Config{Ranks: ranks, Net: net}
	if memBound {
		progs = allocMemPrograms(ranks, steps, 1e6, 8192)
		cfg.SocketOf = func(rank int) int { return rank / 2 }
		cfg.SocketBandwidth = 40e9
		cfg.CoreBandwidth = 12e9
	} else {
		progs = allocRingPrograms(ranks, steps, sim.Milli(3), 8192)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := Run(cfg, progs); err != nil {
			t.Fatal(err)
		}
	})
}

// smallRunAllocBudget is the allocation budget for a 4-rank, 6-step
// eager ring Run. The measured value is 65 — all of it per-run setup
// (simulation, ranks, request and match-list slabs, presized recorders,
// the event and eager-message pools, result assembly); the per-step hot
// path allocates nothing (see TestStepsAreAllocationFree). The budget
// leaves 20 allocations of headroom over the measured value; if
// this test fails, the hot path has started allocating again — profile
// before raising the number.
const smallRunAllocBudget = 85

// TestSmallRunAllocBudget pins the absolute allocation count of a small
// simulation run.
func TestSmallRunAllocBudget(t *testing.T) {
	avg := runAllocs(t, 4, 6, false)
	if avg > smallRunAllocBudget {
		t.Errorf("4-rank 6-step Run allocates %.1f objects, budget %d", avg, smallRunAllocBudget)
	}
}

// TestStepsAreAllocationFree pins the marginal allocation cost of a
// simulation step at zero: a 30-step run must allocate no more than a
// 6-step run of the same shape, because events, eager messages and
// memband phases are pooled, requests and match records live in slabs
// sized from the programs, and the recorders are presized from the
// program shape. This is the sharp
// version of the budget above — any per-event or per-request
// allocation sneaking back into the hot path fails here regardless of
// the setup cost. Both the compute-bound (eager ring) and the
// memory-bound (socket-shared phases) paths are gated.
func TestStepsAreAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		memBound bool
	}{
		{"compute-bound", false},
		{"memory-bound", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			short := runAllocs(t, 4, 6, tc.memBound)
			long := runAllocs(t, 4, 30, tc.memBound)
			if long > short {
				t.Errorf("30-step run allocates %.1f objects vs %.1f for 6 steps; the per-step hot path should be allocation-free", long, short)
			}
		})
	}
}

// TestTraceSegmentsPresizedExactly pins the recorder presizing to the
// ops that can record a segment: per step a noisy Compute (exec plus
// noise), one send overhead per Isend and one Waitall wait, plus every
// Delay. An Irecv records none, even with a receive overhead. Each
// rank's segment slice must come back with exactly that capacity,
// which proves the tighter hint never regrows.
func TestTraceSegmentsPresizedExactly(t *testing.T) {
	const ranks, steps = 8, 10
	net, err := netmodel.NewLogGOPS(sim.Micro(2), sim.Micro(1), sim.Micro(1), 1e-10, 0, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	progs := allocRingPrograms(ranks, steps, sim.Milli(1), 8192)
	progs[3] = append(Program{Delay{Duration: sim.Milli(5), Step: 0}}, progs[3]...)
	cfg := Config{Ranks: ranks, Net: net, Trace: TraceFull,
		Noise: func(rank, step int) sim.Time { return sim.Micro(10 * float64(1+rank%3)) }}
	res, err := Run(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range res.Traces.Ranks {
		bound := steps * (2 + 2 + 1)
		if rt.Rank == 3 {
			bound++
		}
		if segs := rt.Segments; cap(segs) != bound || len(segs) > cap(segs) {
			t.Errorf("rank %d: %d segments in cap %d, want cap %d", rt.Rank, len(segs), cap(segs), bound)
		}
	}
}
