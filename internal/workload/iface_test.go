package workload

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

// validWorkloads returns one valid instance of every built-in kernel.
func validWorkloads(t *testing.T) []Workload {
	t.Helper()
	return []Workload{
		BulkSync{Topo: mkChain(t, 8, 1, topology.Bidirectional, topology.Periodic),
			Steps: 4, Texec: sim.Milli(3), Bytes: 8192},
		StreamTriad{Ranks: 6, Steps: 4, WorkingSet: 1.2e9, MessageBytes: 2_000_000},
		LBM{Ranks: 6, Steps: 4, CellsPerDim: 50},
		DivideKernel{Ranks: 6, Steps: 4, PhaseTime: sim.Milli(3)},
	}
}

// TestWorkloadContract exercises the interface over every built-in
// kernel: Validate passes, Topology resolves to the rank count Programs
// produces, and the programs validate against the topology.
func TestWorkloadContract(t *testing.T) {
	for _, wl := range validWorkloads(t) {
		if err := wl.Validate(); err != nil {
			t.Errorf("%v: Validate: %v", wl, err)
			continue
		}
		topo, err := wl.Topology()
		if err != nil {
			t.Errorf("%v: Topology: %v", wl, err)
			continue
		}
		if topo == nil {
			t.Errorf("%v: nil topology", wl)
			continue
		}
		progs, err := wl.Programs()
		if err != nil {
			t.Errorf("%v: Programs: %v", wl, err)
			continue
		}
		if len(progs) != topo.Ranks() {
			t.Errorf("%v: %d programs for %d ranks", wl, len(progs), topo.Ranks())
		}
	}
}

// TestWithInjectionsDoesNotMutate pins the value semantics the sweep
// engine relies on: WithInjections and WithTopology return copies and
// leave the receiver (and its slices) untouched.
func TestWithInjectionsDoesNotMutate(t *testing.T) {
	inj := noise.Injection{Rank: 1, Step: 1, Duration: sim.Milli(9)}
	extra := noise.Injection{Rank: 2, Step: 2, Duration: sim.Milli(5)}
	for _, wl := range validWorkloads(t) {
		in, ok := wl.(Injectable)
		if !ok {
			t.Errorf("%v: not Injectable", wl)
			continue
		}
		first := in.WithInjections(inj)
		if got := len(first.Delays()); got != 1 {
			t.Errorf("%v: delays after one injection = %d", wl, got)
		}
		if got := len(wl.Delays()); got != 0 {
			t.Errorf("%v: receiver mutated, has %d delays", wl, got)
		}
		// Appending to a copy must not leak into a sibling copy.
		second := first.(Injectable).WithInjections(extra)
		third := first.(Injectable).WithInjections(extra, extra)
		if len(second.Delays()) != 2 || len(third.Delays()) != 3 {
			t.Errorf("%v: sibling copies share backing arrays: %d, %d",
				wl, len(second.Delays()), len(third.Delays()))
		}
		if len(first.Delays()) != 1 {
			t.Errorf("%v: first copy mutated to %d delays", wl, len(first.Delays()))
		}
	}
}

// TestWithTopologyRetargets pins the Retargetable contract: the copy
// runs on the new topology, the receiver keeps its default.
func TestWithTopologyRetargets(t *testing.T) {
	torus, err := topology.NewGrid([]int{6}, 1, topology.Bidirectional, topology.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range validWorkloads(t) {
		rt, ok := wl.(Retargetable)
		if !ok {
			t.Errorf("%v: not Retargetable", wl)
			continue
		}
		moved := rt.WithTopology(torus)
		topo, err := moved.Topology()
		if err != nil {
			// Kernels with a fixed rank count reject mismatched
			// topologies (the 8-rank BulkSync accepts any).
			continue
		}
		if topo.Ranks() != torus.Ranks() {
			t.Errorf("%v: retargeted topo has %d ranks", wl, topo.Ranks())
		}
		// The receiver keeps its own topology (value semantics).
		if orig, err := wl.Topology(); err != nil {
			t.Errorf("%v: receiver topology broken after retarget: %v", wl, err)
		} else if orig.String() == torus.String() {
			t.Errorf("%v: receiver now reports the retargeted topology", wl)
		}
	}
}

// TestHints pins the analytics hints the public pipeline derives
// thresholds from.
func TestHints(t *testing.T) {
	tr := StreamTriad{Ranks: 6, Steps: 4, WorkingSet: 1.2e9, MessageBytes: 2_000_000}
	if got := tr.MemBytesPerStep(); got != 2e8 {
		t.Errorf("triad MemBytesPerStep = %g", got)
	}
	if got := tr.MessageHint(); got != 2_000_000 {
		t.Errorf("triad MessageHint = %d", got)
	}
	l := LBM{Ranks: 10, Steps: 4, CellsPerDim: 302}
	if got, want := l.MessageHint(), l.HaloBytes(); got != want {
		t.Errorf("lbm MessageHint = %d, want %d", got, want)
	}
	if got, want := l.MemBytesPerStep(), l.MemBytesPerRank(); got != want {
		t.Errorf("lbm MemBytesPerStep = %g, want %g", got, want)
	}
	d := DivideKernel{Ranks: 4, Steps: 4, PhaseTime: sim.Milli(3)}
	if got := d.PhaseHint(); got != sim.Milli(3) {
		t.Errorf("divide PhaseHint = %v", got)
	}
	if got := d.MessageHint(); got != 8 {
		t.Errorf("divide MessageHint = %d", got)
	}
}

// TestDerivedValidateMatchesPrograms pins that Validate and Programs
// agree on rejection for the derived kernels.
func TestDerivedValidateMatchesPrograms(t *testing.T) {
	bad := []Workload{
		StreamTriad{Ranks: 2, Steps: 1, WorkingSet: 1, MessageBytes: 1},
		StreamTriad{Ranks: 5, Steps: 1, WorkingSet: 0, MessageBytes: 1},
		StreamTriad{Ranks: 5, Steps: 1, WorkingSet: math.NaN(), MessageBytes: 1},
		StreamTriad{Ranks: 5, Steps: 1, WorkingSet: math.Inf(1), MessageBytes: 1},
		StreamTriad{Ranks: 5, Steps: 0, WorkingSet: 1, MessageBytes: 1},
		LBM{Ranks: 1, Steps: 1, CellsPerDim: 10},
		LBM{Ranks: 10, Steps: 1, CellsPerDim: 0},
		DivideKernel{Ranks: 1, Steps: 1, PhaseTime: 1},
		DivideKernel{Ranks: 4, Steps: 1, PhaseTime: 0},
		DivideKernel{Ranks: 4, Steps: 1, PhaseTime: sim.Time(math.NaN())},
		DivideKernel{Ranks: 4, Steps: 1, PhaseTime: sim.Milli(3),
			Injections: []noise.Injection{{Rank: 99, Step: 0, Duration: 1}}},
	}
	for _, wl := range bad {
		if err := wl.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted", wl)
		}
		if _, err := wl.Programs(); err == nil {
			t.Errorf("%+v: Programs accepted", wl)
		}
	}
}
