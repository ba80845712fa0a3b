package mpisim

// Shard-count invariance and eligibility tests for the conservative
// parallel-DES mode. The load-bearing property is the one the public
// API advertises: a fixed scenario produces byte-identical results at
// any shard count, whether the plan runs parallel or falls back to the
// serial engine. Everything here is hand-rolled or reuses the test
// helpers in equivalence_test.go — internal/workload and internal/noise
// import this package, so the scenarios cannot come from them.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
)

// shardCounts is the ladder every invariance test climbs: serial
// reference, single-shard parallel driver, several genuine partitions,
// and whatever the host machine would use.
func shardCounts() []int {
	counts := []int{0, 1, 2, 3}
	n := runtime.NumCPU()
	for _, c := range counts {
		if c == n {
			return counts
		}
	}
	return append(counts, n)
}

// runAtShards executes the scenario at the given shard count and
// returns the full-trace result plus the streaming front extracted via
// OnWait under TraceOff (the fig1-style report path of the big runs).
func runAtShards(t *testing.T, cfg Config, progs []Program, topo equivTopology, injRank int, texec sim.Time, shards int) (*Result, string) {
	t.Helper()
	full := cfg
	full.Trace = TraceFull
	full.Shards = shards
	if cfg.NoiseFactory != nil {
		// Stateful injectors advance as they are sampled; every run gets
		// a fresh instance (all instances replay identical streams).
		full.Noise = cfg.NoiseFactory()
	}
	res, err := Run(full, progs)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}

	tracker := wave.NewFrontTracker(topo, injRank, texec/2)
	off := cfg
	off.Trace = TraceOff
	off.Shards = shards
	off.OnWait = tracker.Observe
	if cfg.NoiseFactory != nil {
		off.Noise = cfg.NoiseFactory()
	}
	resOff, err := Run(off, progs)
	if err != nil {
		t.Fatalf("shards=%d TraceOff: %v", shards, err)
	}
	if resOff.End != res.End || resOff.Events != res.Events {
		t.Fatalf("shards=%d: TraceOff run diverges from TraceFull: end %v vs %v, events %d vs %d",
			shards, resOff.End, res.End, resOff.Events, res.Events)
	}
	front, err := json.Marshal(tracker.Front())
	if err != nil {
		t.Fatal(err)
	}
	return res, string(front)
}

func marshalTraces(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Traces)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkShardInvariance runs the scenario across the shard ladder and
// requires byte-identical traces, end time, event count and streamed
// front report at every count.
func checkShardInvariance(t *testing.T, cfg Config, progs []Program, topo equivTopology, injRank int, texec sim.Time) {
	t.Helper()
	ref, refFront := runAtShards(t, cfg, progs, topo, injRank, texec, 0)
	refTraces := marshalTraces(t, ref)
	for _, shards := range shardCounts()[1:] {
		res, front := runAtShards(t, cfg, progs, topo, injRank, texec, shards)
		if res.End != ref.End {
			t.Errorf("shards=%d: end %v, serial %v", shards, res.End, ref.End)
		}
		if res.Events != ref.Events {
			t.Errorf("shards=%d: %d events, serial %d", shards, res.Events, ref.Events)
		}
		if got := marshalTraces(t, res); got != refTraces {
			t.Errorf("shards=%d: traces diverge from serial run", shards)
		}
		if front != refFront {
			t.Errorf("shards=%d: front diverges:\nserial: %s\nshard:  %s", shards, refFront, front)
		}
	}
}

// TestShardInvarianceChain is the paper's core scenario: a bidirectional
// open chain with one injected delay, eager traffic, no noise. The plan
// must genuinely shard (asserted via PlanShards), and every shard count
// must reproduce the serial run exactly.
func TestShardInvarianceChain(t *testing.T) {
	const ranks, steps = 40, 6
	net := testNet(t)
	texec := sim.Milli(3)
	topo, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	progs := equivPrograms(topo, steps, texec, 8192, ranks/2, 0, 5*texec, 0)
	cfg := Config{Ranks: ranks, Net: net}

	pcfg := cfg
	pcfg.Shards = 3
	dec, err := PlanShards(pcfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reason != "" || len(dec.Bounds) != 4 {
		t.Fatalf("eager chain at Shards=3 should run 3-way parallel, got bounds %v reason %q", dec.Bounds, dec.Reason)
	}

	checkShardInvariance(t, cfg, progs, topo, ranks/2, texec)
}

// TestShardInvarianceIdleWake drives the horizon fixpoint's hard case: a
// unidirectional periodic ring where a middle shard sits idle until the
// delayed shard's messages wake it, and its own sends must still reach
// the third shard at the right time. Raw next-event horizons (without
// the min-plus fixpoint over idle shards) would deadlock or misorder
// this scenario.
func TestShardInvarianceIdleWake(t *testing.T) {
	const ranks, steps = 30, 8
	net := testNet(t)
	texec := sim.Milli(2)
	topo, err := topology.NewChain(ranks, 1, topology.Unidirectional, topology.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	progs := equivPrograms(topo, steps, texec, 4096, 0, 0, 8*texec, 0)
	checkShardInvariance(t, Config{Ranks: ranks, Net: net}, progs, topo, 0, texec)
}

// TestShardInvarianceTorus covers the grid-slab partition shape on a 2-D
// torus, where every cut crosses a full row of channels in both
// directions plus the periodic wrap-around.
func TestShardInvarianceTorus(t *testing.T) {
	net := testNet(t)
	texec := sim.Milli(3)
	topo, err := topology.Torus2D(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	progs := equivPrograms(topo, 5, texec, 8192, 7, 0, 5*texec, 0)
	checkShardInvariance(t, Config{Ranks: topo.Ranks(), Net: net}, progs, topo, 7, texec)
}

// TestShardInvarianceMemoryBound shards a memory-bound scenario: socket
// runs of 4 ranks each, cuts snapped to socket boundaries, eager halo
// traffic, no bandwidth charging (which would be ineligible).
func TestShardInvarianceMemoryBound(t *testing.T) {
	const ranks, steps = 32, 5
	net := testNet(t)
	texec := sim.Milli(1)
	topo, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	progs := equivPrograms(topo, steps, texec, 8192, 10, 1, 6*texec, 5e6)
	cfg := Config{
		Ranks:           ranks,
		Net:             net,
		SocketOf:        func(rank int) int { return rank / 4 },
		SocketBandwidth: 40e9,
		CoreBandwidth:   8e9,
	}

	// The snapped cuts must land on socket boundaries.
	pcfg := cfg
	pcfg.Shards = 3
	dec, err := PlanShards(pcfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reason != "" {
		t.Fatalf("memory-bound chain should shard, fell back: %s", dec.Reason)
	}
	for _, b := range dec.Bounds {
		if b%4 != 0 {
			t.Fatalf("cut at %d splits a socket (bounds %v)", b, dec.Bounds)
		}
	}

	checkShardInvariance(t, cfg, progs, topo, 10, texec)
}

// shardTestNoise builds a factory of stateful per-rank noise streams the
// way internal/noise does: each injector instance lazily materializes an
// LCG per rank seeded by (seed, rank) alone, so every instance replays
// identical per-rank streams regardless of which shard samples them.
func shardTestNoise(seed uint64, texec sim.Time) func() NoiseFunc {
	return func() NoiseFunc {
		streams := map[int]*uint64{}
		return func(rank, step int) sim.Time {
			st, ok := streams[rank]
			if !ok {
				v := seed ^ uint64(rank+1)*0x9e3779b97f4a7c15
				st = &v
				streams[rank] = st
			}
			*st = *st*6364136223846793005 + 1442695040888963407
			return texec * sim.Time(*st>>33%127) / 1000
		}
	}
}

// TestShardInvarianceNoisy checks the NoiseFactory contract end to end:
// a noisy chain shards only when the factory is supplied, each shard
// samples its own injector instance, and the result is byte-identical
// to the serial run that uses a single instance.
func TestShardInvarianceNoisy(t *testing.T) {
	const ranks, steps = 36, 6
	net := testNet(t)
	texec := sim.Milli(3)
	topo, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	progs := equivPrograms(topo, steps, texec, 8192, 5, 0, 5*texec, 0)
	factory := shardTestNoise(42, texec)
	cfg := Config{Ranks: ranks, Net: net, Noise: factory(), NoiseFactory: factory}
	checkShardInvariance(t, cfg, progs, topo, 5, texec)
}

// TestShardInvarianceOnRandomScenarios is the randomized sweep the race
// CI job runs: small scenarios (<=64 ranks) across topologies,
// protocols, noise and memory-boundedness, each executed at 2-4 shards
// and compared against the serial reference. Ineligible draws exercise
// the fallback path, which must be just as invariant.
func TestShardInvarianceOnRandomScenarios(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	net := testNet(t)
	texec := sim.Milli(3)
	for i := 0; i < 10; i++ {
		var topo equivTopology
		var label string
		switch r.Intn(3) {
		case 0:
			n := 8 + r.Intn(57)
			c, err := topology.NewChain(n, 1, topology.Bidirectional, topology.Open)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = c, fmt.Sprintf("chain%d", n)
		case 1:
			n := 8 + r.Intn(57)
			dir := topology.Bidirectional
			if r.Intn(2) == 0 {
				dir = topology.Unidirectional
			}
			c, err := topology.NewChain(n, 1, dir, topology.Periodic)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = c, fmt.Sprintf("ring%d_%s", n, dir)
		default:
			a, b := 3+r.Intn(4), 3+r.Intn(4)
			g, err := topology.Torus2D(a, b)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = g, fmt.Sprintf("torus%dx%d", a, b)
		}
		ranks := topo.Ranks()
		steps := 3 + r.Intn(3)
		bytes := 8192
		if r.Intn(4) == 0 {
			bytes = 200_000 // rendezvous: cross-shard ineligible, fallback path
			label += "_rndv"
		}
		injRank := r.Intn(ranks)
		cfg := Config{Ranks: ranks, Net: net}
		if r.Intn(3) == 0 {
			factory := shardTestNoise(uint64(i)*77+1, texec)
			cfg.Noise = factory()
			cfg.NoiseFactory = factory
			label += "_noise"
		}
		memBytes := 0.0
		if r.Intn(4) == 0 {
			memBytes = 5e6
			cfg.SocketOf = func(rank int) int { return rank / 4 }
			cfg.SocketBandwidth = 40e9
			cfg.CoreBandwidth = 8e9
			label += "_mem"
		}
		shards := 2 + r.Intn(3)
		progs := equivPrograms(topo, steps, texec, bytes, injRank, 0, 5*texec, memBytes)

		t.Run(fmt.Sprintf("%s_s%d", label, shards), func(t *testing.T) {
			ref, refFront := runAtShards(t, cfg, progs, topo, injRank, texec, 0)
			res, front := runAtShards(t, cfg, progs, topo, injRank, texec, shards)
			if res.End != ref.End || res.Events != ref.Events {
				t.Errorf("shards=%d diverges: end %v vs %v, events %d vs %d",
					shards, res.End, ref.End, res.Events, ref.Events)
			}
			if got, want := marshalTraces(t, res), marshalTraces(t, ref); got != want {
				t.Errorf("shards=%d: traces diverge from serial run", shards)
			}
			if front != refFront {
				t.Errorf("shards=%d: front diverges", shards)
			}
		})
	}
}

// TestShardOnWaitPerRankOrder verifies the documented sharded OnWait
// contract: each rank's intervals arrive in time order even though the
// global stream is merged per horizon window.
func TestShardOnWaitPerRankOrder(t *testing.T) {
	const ranks, steps = 24, 8
	net := testNet(t)
	texec := sim.Milli(2)
	topo, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	progs := equivPrograms(topo, steps, texec, 8192, 3, 0, 6*texec, 0)
	lastEnd := make(map[int]sim.Time)
	cfg := Config{
		Ranks: ranks,
		Net:   net,
		Trace: TraceOff,
		OnWait: func(rank, step int, start, end sim.Time) {
			if end < lastEnd[rank] {
				t.Errorf("rank %d wait ending %v delivered after one ending %v", rank, end, lastEnd[rank])
			}
			lastEnd[rank] = end
		},
		Shards: 3,
	}
	if _, err := Run(cfg, progs); err != nil {
		t.Fatal(err)
	}
	if len(lastEnd) == 0 {
		t.Fatal("no wait intervals streamed")
	}
}

// TestShardPlanDecisions pins the eligibility rules: each serial
// fallback has a stable, explanatory reason, and eligible plans report
// their bounds.
func TestShardPlanDecisions(t *testing.T) {
	const ranks = 24
	net := testNet(t)
	texec := sim.Milli(1)
	topo, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	eager := equivPrograms(topo, 2, texec, 8192, 0, 0, texec, 0)
	rendezvous := equivPrograms(topo, 2, texec, 200_000, 0, 0, texec, 0)
	memBound := equivPrograms(topo, 2, texec, 8192, 0, 0, texec, 5e6)

	base := Config{Ranks: ranks, Net: net, Shards: 2}

	cases := []struct {
		name   string
		cfg    func() Config
		progs  []Program
		reason string // substring; "" = expect a parallel plan
	}{
		{"serial requested", func() Config { c := base; c.Shards = 0; return c }, eager, "serial requested"},
		{"eager chain shards", func() Config { return base }, eager, ""},
		{"one rank collapses to serial-equivalent single shard", func() Config {
			c := base
			c.Ranks = 1
			return c
		}, eager[:1:1], ""},
		{"rendezvous across cut", func() Config { return base }, rendezvous, "rendezvous message"},
		{"finite eager buffers", func() Config { c := base; c.EagerMaxOutstanding = 2; return c }, eager, "finite eager buffers"},
		{"noise without factory", func() Config {
			c := base
			c.Noise = equivNoise(texec)
			return c
		}, eager, "NoiseFactory"},
		{"noise with factory shards", func() Config {
			c := base
			f := shardTestNoise(1, texec)
			c.Noise = f()
			c.NoiseFactory = f
			return c
		}, eager, ""},
		{"bandwidth charging across cut", func() Config {
			c := base
			c.SocketOf = func(rank int) int { return rank / 4 }
			c.SocketBandwidth = 40e9
			c.ChargeCommBandwidth = true
			return c
		}, eager, "bandwidth charging"},
		{"non-contiguous sockets", func() Config {
			c := base
			c.SocketOf = func(rank int) int { return rank % 2 }
			c.SocketBandwidth = 40e9
			return c
		}, memBound, "not contiguous"},
		{"contiguous sockets shard", func() Config {
			c := base
			c.SocketOf = func(rank int) int { return rank / 4 }
			c.SocketBandwidth = 40e9
			return c
		}, memBound, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			progs := tc.progs
			if cfg.Ranks == 1 {
				progs = []Program{{Compute{Duration: texec, Step: 0}, Waitall{Step: 0}}}
			}
			dec, err := PlanShards(cfg, progs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reason == "" {
				if dec.Reason != "" {
					t.Fatalf("expected a parallel plan, got fallback: %s", dec.Reason)
				}
				if len(dec.Bounds) < 2 {
					t.Fatalf("parallel plan with bounds %v", dec.Bounds)
				}
			} else {
				if !strings.Contains(dec.Reason, tc.reason) {
					t.Fatalf("reason %q does not mention %q", dec.Reason, tc.reason)
				}
				if dec.Bounds != nil {
					t.Fatalf("serial decision carries bounds %v", dec.Bounds)
				}
				// The run itself must still work (serial fallback).
				if cfg.Shards > 0 {
					if _, err := Run(cfg, progs); err != nil {
						t.Fatalf("fallback run failed: %v", err)
					}
				}
			}
		})
	}
}

// TestShardValidate pins the config-level errors.
func TestShardValidate(t *testing.T) {
	net := testNet(t)
	progs := []Program{{Compute{Duration: sim.Milli(1), Step: 0}, Waitall{Step: 0}}}
	if _, err := Run(Config{Ranks: 1, Net: net, Shards: -1}, progs); err == nil || !strings.Contains(err.Error(), "negative shard count") {
		t.Fatalf("negative Shards accepted (err=%v)", err)
	}
	cfg := Config{Ranks: 1, Net: net, NoiseFactory: func() NoiseFunc { return nil }}
	if _, err := Run(cfg, progs); err == nil || !strings.Contains(err.Error(), "NoiseFactory") {
		t.Fatalf("NoiseFactory without Noise accepted (err=%v)", err)
	}
}
