package workload

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

// refBulkPrograms is BulkSync.Programs' original loop: a map of maps
// for the injections and one box per op.
func refBulkPrograms(b BulkSync) []mpisim.Program {
	inj := make(map[int]map[int]sim.Time)
	for _, in := range b.Injections {
		if inj[in.Rank] == nil {
			inj[in.Rank] = make(map[int]sim.Time)
		}
		inj[in.Rank][in.Step] += in.Duration
	}
	progs := make([]mpisim.Program, b.Topo.Ranks())
	for i := range progs {
		var p mpisim.Program
		for step := 0; step < b.Steps; step++ {
			if d, ok := inj[i][step]; ok {
				p = append(p, mpisim.Delay{Duration: d, Step: step})
			}
			p = append(p, mpisim.Compute{Duration: b.Texec, MemBytes: b.MemBytes, Step: step})
			for _, to := range b.Topo.SendTargets(i) {
				p = append(p, mpisim.Isend{To: to, Bytes: b.Bytes, Tag: step})
			}
			for _, from := range b.Topo.RecvSources(i) {
				p = append(p, mpisim.Irecv{From: from, Bytes: b.Bytes, Tag: step})
			}
			p = append(p, mpisim.Waitall{Step: step})
		}
		progs[i] = p
	}
	return progs
}

func mkTorus(t *testing.T, x, y int) topology.Grid {
	t.Helper()
	g, err := topology.NewGrid([]int{x, y}, 1, topology.Bidirectional, topology.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBulkProgramsMatchReference pins the shared-box programs to the
// original loop op for op (== on each Op), with every program sized
// exactly. Each case builds through its own workload; ref is the
// BulkSync it resolves to.
func TestBulkProgramsMatchReference(t *testing.T) {
	bulk := func(topo topology.Topology, steps int, texec sim.Time, bytes int, inj ...noise.Injection) BulkSync {
		return BulkSync{Topo: topo, Steps: steps, Texec: texec, Bytes: bytes, Injections: inj}
	}
	lbm := LBM{Ranks: 6, Steps: 5, CellsPerDim: 30,
		Injections: []noise.Injection{{Rank: 4, Step: 1, Duration: sim.Milli(2)}}}
	lbmBulk, err := lbm.bulk()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		w    Workload
		ref  BulkSync
	}{
		{name: "open chain, two injections at one (rank, step)", ref: bulk(
			mkChain(t, 7, 1, topology.Bidirectional, topology.Open), 6, sim.Milli(3), 8192,
			noise.Injection{Rank: 3, Step: 2, Duration: sim.Milli(1)},
			noise.Injection{Rank: 0, Step: 5, Duration: sim.Milli(4)},
			noise.Injection{Rank: 3, Step: 2, Duration: sim.Milli(7)})},
		{name: "chain d=2", ref: bulk(
			mkChain(t, 9, 2, topology.Bidirectional, topology.Periodic), 4, sim.Milli(1), 64,
			noise.Injection{Rank: 8, Step: 3, Duration: sim.Milli(5)})},
		{name: "4x4 periodic torus", ref: bulk(mkTorus(t, 4, 4), 5, sim.Milli(3), 8192,
			noise.Injection{Rank: 5, Step: 0, Duration: sim.Milli(9)})},
		{name: "LBM (MemBytes)", w: lbm, ref: lbmBulk},
		{name: "300 steps (Waitall boxes above 256)", ref: bulk(
			mkChain(t, 4, 1, topology.Unidirectional, topology.Periodic), 300, sim.Micro(50), 8,
			noise.Injection{Rank: 1, Step: 280, Duration: sim.Milli(1)})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.w == nil {
				c.w = c.ref
			}
			progs, err := c.w.Programs()
			if err != nil {
				t.Fatal(err)
			}
			want := refBulkPrograms(c.ref)
			if len(progs) != len(want) {
				t.Fatalf("%d programs, want %d", len(progs), len(want))
			}
			for i := range want {
				if len(progs[i]) != len(want[i]) || cap(progs[i]) != len(progs[i]) {
					t.Fatalf("rank %d: len %d cap %d, want len %d and cap == len",
						i, len(progs[i]), cap(progs[i]), len(want[i]))
				}
				for k := range want[i] {
					if progs[i][k] != want[i][k] {
						t.Fatalf("rank %d op %d = %#v, want %#v", i, k, progs[i][k], want[i][k])
					}
				}
			}
		})
	}
}

// TestBulkProgramsShareBoxes gates the box sharing: on a torus every
// (peer, step) costs one Isend and one Irecv box, and the Compute and
// Waitall of a step one box each, so the allocations stay near
// 2*n*steps. Boxing each op per rank needs about 9*n*steps.
func TestBulkProgramsShareBoxes(t *testing.T) {
	const steps = 300
	b := BulkSync{Topo: mkTorus(t, 16, 16), Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: 17, Step: 3, Duration: sim.Milli(9)}}}
	n := b.Topo.Ranks()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := b.Programs(); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(2*n*steps + steps + 4*n + 16); allocs > budget {
		t.Fatalf("BulkSync.Programs: %.0f allocs on a 16x16 torus x %d steps, budget %.0f", allocs, steps, budget)
	}
}

// BenchmarkBulkPrograms100k times building the 10^5-rank chain's
// programs (12 steps), the input of the largest benchmark scenario.
func BenchmarkBulkPrograms100k(b *testing.B) {
	chain, err := topology.NewChain(100000, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		b.Fatal(err)
	}
	w := BulkSync{Topo: chain, Steps: 12, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: 50000, Step: 1, Duration: sim.Milli(15)}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Programs(); err != nil {
			b.Fatal(err)
		}
	}
}
