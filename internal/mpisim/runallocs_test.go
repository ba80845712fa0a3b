package mpisim_test

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// maxRunAllocsPerRank bounds what one Run allocates per rank of a large
// bulk-synchronous chain. Requests and match lists come from run-scoped
// slabs, so what remains per rank is the engine's event pool and the
// eager messages in flight: about 6 objects. A per-request or
// per-channel object graph (about 18 per rank) fails it.
const maxRunAllocsPerRank = 8

// TestRunAllocsPerRank runs a 2,000-rank open chain of the bulk-
// synchronous workload, 12 steps with a one-off delay at the centre,
// trace off, and gates its allocations per rank.
func TestRunAllocsPerRank(t *testing.T) {
	const ranks = 2000
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.BulkSync{Topo: chain, Steps: 12, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}}}
	progs, err := wl.Programs()
	if err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpisim.Config{Ranks: ranks, Net: net, Trace: mpisim.TraceOff}
	perRank := testing.AllocsPerRun(5, func() {
		if _, err := mpisim.Run(cfg, progs); err != nil {
			t.Fatal(err)
		}
	}) / ranks
	t.Logf("%.2f allocations per rank", perRank)
	if perRank > maxRunAllocsPerRank {
		t.Errorf("Run allocates %.2f objects per rank, budget %d", perRank, maxRunAllocsPerRank)
	}
}
