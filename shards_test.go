package idlewave

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpisim"
)

// shardLadder returns the shard counts the public invariance tests walk:
// serial, the degenerate single shard, two uneven splits, and every
// hardware thread on the runner.
func shardLadder() []int {
	ladder := []int{0, 1, 2, 3}
	if n := runtime.NumCPU(); n > 3 {
		ladder = append(ladder, n)
	}
	return ladder
}

// shardScenarios returns the scenarios the public shard tests run:
// traceModeScenarios, whose bulk-synchronous programs take the lockstep
// solver whatever Shards says, and a process-style chain that the solver
// declines (its injected delay follows the Compute, and it ends in a
// dissemination barrier), so that Shards sends it through the
// parallel-DES driver and the per-shard NoiseFactory rebuild.
func shardScenarios(t *testing.T) []struct {
	name   string
	spec   ScenarioSpec
	source int
} {
	t.Helper()
	topo, err := NewChain(32, 1, Bidirectional, Open)
	if err != nil {
		t.Fatal(err)
	}
	chain := func(c *Comm) {
		r, n := c.Rank(), c.Size()
		for s := 0; s < 10; s++ {
			c.Compute(3 * time.Millisecond)
			if r == 16 && s == 2 {
				c.Delay(15 * time.Millisecond)
			}
			if r+1 < n {
				c.Isend(r+1, 8192)
			}
			if r > 0 {
				c.Isend(r-1, 8192)
				c.Irecv(r-1, 8192)
			}
			if r+1 < n {
				c.Irecv(r+1, 8192)
			}
			c.Waitall()
		}
		c.Barrier()
	}
	scs := traceModeScenarios(t)
	scs = append(scs, struct {
		name   string
		spec   ScenarioSpec
		source int
	}{
		name:   "process-chain",
		spec:   ScenarioSpec{Workload: ProcessWorkload{Ranks: 32, Fn: chain, Topo: topo}},
		source: 16,
	})
	return scs
}

// TestShardScenariosReachTheShardDriver pins which path each shard
// scenario takes with Shards set: the bulk-synchronous ones the lockstep
// solver, the process-style one the parallel-DES driver (PlanShards
// reports shard bounds and no lockstep), so the shard invariance tests
// keep covering the driver.
func TestShardScenariosReachTheShardDriver(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			spec := sc.spec.withDefaults()
			wl, err := spec.workloadFor()
			if err != nil {
				t.Fatal(err)
			}
			progs, err := wl.Programs()
			if err != nil {
				t.Fatal(err)
			}
			net, err := spec.Machine.FlatNetModel()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := mpisim.PlanShards(mpisim.Config{Ranks: len(progs), Net: net, Shards: 2}, progs)
			if err != nil {
				t.Fatal(err)
			}
			wantLockstep := sc.name != "process-chain"
			if dec.Lockstep != wantLockstep {
				t.Fatalf("Lockstep %v (engine reason %q), want %v", dec.Lockstep, dec.EngineReason, wantLockstep)
			}
			if !wantLockstep && len(dec.Bounds) != 3 {
				t.Fatalf("shard bounds %v (reason %q), want a two-shard plan", dec.Bounds, dec.Reason)
			}
		})
	}
}

// TestShardInvariancePublicAPI is the public face of the parallel-DES
// determinism contract: Simulate with any ScenarioSpec.Shards value
// returns byte-identical results — same traces, same runtime, same
// event count, same wave analytics — as the serial run. The scenarios
// run on the default Emmy machine, so natural noise plus the injected
// exponential noise exercise the per-shard NoiseFactory rebuild.
func TestShardInvariancePublicAPI(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			spec := sc.spec
			spec.NoiseLevel = 0.1
			serial, err := Simulate(spec)
			if err != nil {
				t.Fatal(err)
			}
			refTraces, err := json.Marshal(serial.Traces)
			if err != nil {
				t.Fatal(err)
			}
			refSpeed, err := serial.WaveSpeed(sc.source)
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range shardLadder()[1:] {
				sp := spec
				sp.Shards = shards
				res, err := Simulate(sp)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if res.End != serial.End || res.Events != serial.Events {
					t.Errorf("shards=%d: end %v events %d, serial run had %v and %d",
						shards, res.End, res.Events, serial.End, serial.Events)
				}
				got, err := json.Marshal(res.Traces)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(refTraces) {
					t.Errorf("shards=%d: traces diverge from the serial run", shards)
				}
				v, err := res.WaveSpeed(sc.source)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if v != refSpeed {
					t.Errorf("shards=%d: wave speed %v, serial run had %v", shards, v, refSpeed)
				}
			}
		})
	}
}

// TestShardInvarianceReducedTrace crosses the two execution modes that
// each reorder internal bookkeeping: a sharded run with the trace
// recorder off and the front tracked incrementally must agree with the
// serial full-trace run, even though its OnWait intervals arrive in
// horizon batches rather than global time order.
func TestShardInvarianceReducedTrace(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			full, err := Simulate(sc.spec)
			if err != nil {
				t.Fatal(err)
			}
			refSpeed, err := full.WaveSpeed(sc.source)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardLadder()[1:] {
				off := sc.spec
				off.Trace = TraceOff
				off.FrontSources = []int{sc.source}
				off.Shards = shards
				res, err := Simulate(off)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if res.End != full.End || res.Events != full.Events {
					t.Errorf("shards=%d reduced: end %v events %d, serial full run had %v and %d",
						shards, res.End, res.Events, full.End, full.Events)
				}
				v, err := res.WaveSpeed(sc.source)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if v != refSpeed {
					t.Errorf("shards=%d reduced: wave speed %v, serial full run had %v", shards, v, refSpeed)
				}
			}
		})
	}
}

// TestShardSpecValidation pins the public error surface: a negative
// shard count is rejected before anything runs.
func TestShardSpecValidation(t *testing.T) {
	_, err := Simulate(ScenarioSpec{Ranks: 8, Steps: 3, Shards: -1})
	if err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestShardMemoryBoundFallsBack pins that a memory-bound workload with
// Shards set silently falls back to the serial engine (bandwidth
// charging is incompatible with cross-shard traffic) and still matches
// the serial result exactly.
func TestShardMemoryBoundFallsBack(t *testing.T) {
	wl, err := NewStreamTriad(8, 20, 2<<20, 8192)
	if err != nil {
		t.Fatal(err)
	}
	spec := ScenarioSpec{
		Workload: wl,
		Delay:    []Injection{Inject(4, 2, 10*time.Millisecond)},
	}
	serial, err := Simulate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 2
	sharded, err := Simulate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.End != serial.End || sharded.Events != serial.Events {
		t.Errorf("memory-bound fallback diverged: end %v events %d, serial run had %v and %d",
			sharded.End, sharded.Events, serial.End, serial.Events)
	}
}
