// Package bench defines the repository's fixed performance suite:
// benchmarks spanning the layers every experiment funnels through — the
// raw discrete-event engine, a 1-D chain idle wave, a 2-D torus halo
// exchange, the memory-bound LBM proxy, a many-seed noise sweep, and
// Shards-set variants of the two largest cases. Both are lockstep
// programs, which mpisim.Run computes with the lockstep solver at any
// shard count, so the variants time the solver, not the parallel-DES
// driver.
//
// The suite is consumed two ways: bench_test.go wraps every case as an
// ordinary `go test -bench` benchmark, and cmd/bench runs the same cases
// through testing.Benchmark and emits a machine-readable JSON trajectory
// file (ns/op, allocs/op, events/sec) so perf regressions are visible
// PR-over-PR instead of anecdotally.
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
	"repro/internal/workload"
)

// Case is one suite entry. F must call b.ReportAllocs and report an
// "events/op" metric when simulator events are a meaningful throughput
// unit (0 omits the events/sec column in the JSON output).
type Case struct {
	Name string
	// Detail is a one-line description for reports.
	Detail string
	// MemRefCase and MaxBytesRatio declare a cross-case memory-scaling
	// bound: this case's bytes/op must stay below MaxBytesRatio times
	// the bytes/op of the named reference case. cmd/bench enforces the
	// bound when gating (-gate), turning "memory stays proportional to
	// the active state, not the rank count" into a regression test.
	MemRefCase    string
	MaxBytesRatio float64
	// TimeRefCase and MaxNsRatio declare the analogous cross-case time
	// bound: this case's ns/op must stay below MaxNsRatio times the
	// ns/op of the named reference case, measured in the same run. The
	// journal-overhead bound rides on this: the journaled replay case
	// must stay within 10% of the unjournaled one.
	TimeRefCase string
	MaxNsRatio  float64
	// NumShards is the parallel-DES shard count the case runs with
	// (0 = serial engine). cmd/bench records it per entry and its -gate
	// only compares entries with equal shard counts, so scaling numbers
	// from multicore runners never gate against serial baselines.
	NumShards int
	F         func(b *testing.B)
}

// Suite returns the fixed benchmark suite in its canonical order. The
// shard-scaling variants rerun the two largest cases through the
// conservative parallel engine at fixed shard counts plus one entry at
// the runner's full core count; their results are byte-identical to the
// serial cases, so they measure pure engine overhead and speedup.
func Suite() []Case {
	cases := []Case{
		{Name: "EngineSchedule", Detail: "engine microbenchmark: schedule+run 1024 pending events", F: EngineSchedule},
		{Name: "ChainWave1D", Detail: "64-rank open chain, 30 steps, eager protocol, center delay", F: ChainWave1D},
		{Name: "Torus2D", Detail: "16x16 periodic torus halo exchange, 20 steps, center delay", F: Torus2D},
		{Name: "LBMMemBound", Detail: "16-rank memory-bound LBM proxy with socket bandwidth sharing", F: LBMMemBound},
		{Name: "NoiseSweep", Detail: "8-seed exponential-noise sweep on a 32-rank ring", F: NoiseSweep},
		{Name: "ChainWave1k", Detail: "1000-rank open chain, 60 steps, full trace (dense memory reference)", F: ChainWave1k},
		{
			Name:          "ChainWave100k",
			Detail:        "100k-rank open chain, 12 steps, trace off, streaming front tracking",
			MemRefCase:    "ChainWave1k",
			MaxBytesRatio: 20,
			F:             ChainWave100k,
		},
		{Name: "GenChain10k", Detail: "10k-rank stochastic generator: draw expansion + simulation with Poisson delay injection", F: GenChain10k},
		{Name: "TraceReplay1k", Detail: "trace v2 record+replay pair: encode, decode, rebuild and re-simulate a 1000-rank recorded run", F: TraceReplay1k},
		{Name: "SweepReplayUncached", Detail: "sweep service cold path: submit a 4-point spec to a fresh manager", F: SweepReplayUncached},
		{Name: "SweepReplayCached", Detail: "sweep service replay: byte-identical spec answered from the content-addressed cache", F: SweepReplayCached},
		{Name: "SweepJournalOff", Detail: "journal-overhead pair, off half: 36-point sweep on a single-worker manager, no journal", F: SweepJournalOff},
		{
			Name:        "SweepJournalOn",
			Detail:      "journal-overhead pair, on half: same sweep with the durable job journal (fsync'd submit/terminal, async point rows)",
			TimeRefCase: "SweepJournalOff",
			MaxNsRatio:  1.10,
			F:           SweepJournalOn,
		},
	}
	shardCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		shardCounts = append(shardCounts, n)
	}
	for _, s := range shardCounts {
		s := s
		cases = append(cases, Case{
			Name:      fmt.Sprintf("ChainWave100kShard%d", s),
			Detail:    fmt.Sprintf("the ChainWave100k scenario with Shards=%d (lockstep, so the solver runs it)", s),
			NumShards: s,
			F:         func(b *testing.B) { chainWave100kAt(b, s) },
		})
	}
	for _, s := range shardCounts {
		s := s
		cases = append(cases, Case{
			Name:      fmt.Sprintf("Torus2DShard%d", s),
			Detail:    fmt.Sprintf("the Torus2D scenario with Shards=%d (lockstep, so the solver runs it)", s),
			NumShards: s,
			F:         func(b *testing.B) { torus2DAt(b, s) },
		})
	}
	return cases
}

// nopEvent is the no-payload handler for the engine microbenchmark; a
// package-level func so the benchmark measures the engine's own
// allocations, not closure construction at the call site.
func nopEvent() {}

// engineBatch is the number of events scheduled per EngineSchedule
// iteration; large enough that heap growth amortizes away and per-event
// cost dominates.
const engineBatch = 1024

// EngineSchedule measures the engine hot path in isolation: schedule a
// batch of future events on a long-lived engine, then drain it. With the
// per-engine event pool this is allocation-free in steady state.
func EngineSchedule(b *testing.B) {
	b.ReportAllocs()
	var e sim.Engine
	// One warm-up batch populates the free list and grows the heap slice
	// so the timed loop sees steady state.
	runEngineBatch(&e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEngineBatch(&e)
	}
	b.ReportMetric(engineBatch, "events/op")
}

func runEngineBatch(e *sim.Engine) {
	now := e.Now()
	for j := 0; j < engineBatch; j++ {
		e.Schedule(now+sim.Time(j), nopEvent)
	}
	e.Run()
}

// mpiCase bundles a prebuilt workload run for the simulator benchmarks.
type mpiCase struct {
	cfg   mpisim.Config
	progs []mpisim.Program
}

// run executes the case b.N times and reports allocations and events/op.
func (c mpiCase) run(b *testing.B) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := mpisim.Run(c.cfg, c.progs)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

// hockney is the suite's default network: 2 us latency, 3 GB/s,
// 128 KiB eager limit (the Fig. 4 configuration).
func hockney(b *testing.B) netmodel.Model {
	b.Helper()
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// ChainWave1D is the paper's canonical propagation experiment at
// benchmark scale: an idle wave on an open bidirectional chain.
func ChainWave1D(b *testing.B) {
	const ranks, steps = 64, 30
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.BulkSync{
		Topo: chain, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}},
	}
	progs, err := wl.Programs()
	if err != nil {
		b.Fatal(err)
	}
	mpiCase{cfg: mpisim.Config{Ranks: ranks, Net: hockney(b)}, progs: progs}.run(b)
}

// Torus2D is the multi-dimensional halo-exchange regime: a 16x16
// periodic torus with four neighbors per rank.
func Torus2D(b *testing.B) { torus2DAt(b, 0) }

// torus2DAt runs the Torus2D scenario with the given parallel-DES shard
// count (0 = serial engine); results are byte-identical at any count.
func torus2DAt(b *testing.B, shards int) {
	const steps = 20
	torus, err := topology.Torus2D(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	ranks := torus.Ranks()
	wl := workload.BulkSync{
		Topo: torus, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}},
	}
	progs, err := wl.Programs()
	if err != nil {
		b.Fatal(err)
	}
	mpiCase{cfg: mpisim.Config{Ranks: ranks, Net: hockney(b), Shards: shards}, progs: progs}.run(b)
}

// LBMMemBound exercises the memory-bound path: the D3Q19 LBM proxy with
// processor-sharing socket bandwidth and rendezvous-sized halos.
func LBMMemBound(b *testing.B) {
	const ranks, steps = 16, 20
	wl := workload.LBM{Ranks: ranks, Steps: steps, CellsPerDim: 64}
	progs, err := wl.Programs()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mpisim.Config{
		Ranks:           ranks,
		Net:             hockney(b),
		SocketOf:        func(rank int) int { return rank / 8 },
		SocketBandwidth: 40e9,
		CoreBandwidth:   8e9,
	}
	mpiCase{cfg: cfg, progs: progs}.run(b)
}

// ChainWave1k scales the canonical chain experiment to 1000 ranks with
// the full trace recorded — the dense-memory reference point the 100k
// case's bytes/op bound is measured against.
func ChainWave1k(b *testing.B) {
	const ranks, steps = 1000, 60
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.BulkSync{
		Topo: chain, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}},
	}
	progs, err := wl.Programs()
	if err != nil {
		b.Fatal(err)
	}
	mpiCase{cfg: mpisim.Config{Ranks: ranks, Net: hockney(b)}, progs: progs}.run(b)
}

// ChainWave100k is the sparse-state scaling case: a 10^5-rank chain
// wave with the trace recorder off and the front extracted incrementally
// from the wait stream. Memory stays proportional to the live simulation
// state (ranks and in-flight messages), not the rank x step trace — the
// suite declares a bytes/op bound of 20x the 1000-rank dense case and
// cmd/bench -gate enforces it.
func ChainWave100k(b *testing.B) { chainWave100kAt(b, 0) }

// chainWave100kAt runs the ChainWave100k scenario with the given
// parallel-DES shard count (0 = serial engine); the tracked front and
// event count are byte-identical at any count.
func chainWave100kAt(b *testing.B, shards int) {
	const ranks, steps = 100_000, 12
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.BulkSync{
		Topo: chain, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}},
	}
	progs, err := wl.Programs()
	if err != nil {
		b.Fatal(err)
	}
	net := hockney(b)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		tracker := wave.NewFrontTracker(chain, ranks/2, sim.Milli(3)/2)
		cfg := mpisim.Config{
			Ranks: ranks, Net: net,
			Trace:  mpisim.TraceOff,
			OnWait: tracker.Observe,
			Shards: shards,
		}
		res, err := mpisim.Run(cfg, progs)
		if err != nil {
			b.Fatal(err)
		}
		if tracker.Samples() == 0 {
			b.Fatal("front tracker observed no idle wave")
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

// noiseSeeds is the per-iteration seed count of NoiseSweep: the
// many-seed statistics regime of the paper's decay-rate scans.
const noiseSeeds = 8

// NoiseSweep runs the same ring workload under eight different
// exponential fine-grained noise seeds per iteration.
func NoiseSweep(b *testing.B) {
	const ranks, steps = 32, 20
	texec := sim.Milli(3)
	ring, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Periodic)
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.BulkSync{
		Topo: ring, Steps: steps, Texec: texec, Bytes: 8192,
		Injections: []noise.Injection{{Rank: 0, Step: 2, Duration: sim.Milli(15)}},
	}
	progs, err := wl.Programs()
	if err != nil {
		b.Fatal(err)
	}
	net := hockney(b)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		events = 0
		for seed := uint64(1); seed <= noiseSeeds; seed++ {
			cfg := mpisim.Config{
				Ranks: ranks, Net: net,
				Noise: noise.Exponential(seed, 0.10, texec),
			}
			res, err := mpisim.Run(cfg, progs)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
	}
	b.ReportMetric(float64(events), "events/op")
}
