package genload

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sameOps requires got to equal want op for op, with every program
// sized exactly (cap == len).
func sameOps(t *testing.T, got, want []mpisim.Program) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d programs, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || cap(got[i]) != len(got[i]) {
			t.Fatalf("rank %d: len %d cap %d, want len %d and cap == len", i, len(got[i]), cap(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("rank %d op %d = %#v, want %#v", i, k, got[i][k], want[i][k])
			}
		}
	}
}

// refExpandRank is the per-rank draw expansion as first written, with
// an explicit array of nominal step starts.
func refExpandRank(g GenWorkload, rank int) (phases, delays []sim.Time) {
	phases = make([]sim.Time, g.Steps)
	delays = make([]sim.Time, g.Steps)
	pr := rng.New(substreamSeed(g.Seed, rank, streamPhase))
	var t sim.Time
	starts := make([]sim.Time, g.Steps)
	for step := range phases {
		starts[step] = t
		d := g.Phase.Sample(pr, t)
		if d < 0 {
			d = 0
		}
		phases[step] = d
		t += d
	}
	total := t
	if g.Delay == nil || total <= 0 {
		return phases, delays
	}
	dr := rng.New(substreamSeed(g.Seed, rank, streamDelay))
	at := g.Every.Sample(dr, 0)
	step := 0
	for ev := 0; ev < maxDelayEventsPerStep*g.Steps && at < total; ev++ {
		for step+1 < g.Steps && at >= starts[step+1] {
			step++
		}
		if d := g.Delay.Sample(dr, at); d > 0 {
			delays[step] += d
		}
		gap := g.Every.Sample(dr, at)
		if gap <= 0 {
			gap = sim.Time(1e-12)
		}
		at += gap
	}
	return phases, delays
}

// refGenPrograms is GenWorkload.Programs' original per-rank loop: a map
// of maps for the injections and one box per op.
func refGenPrograms(t *testing.T, g GenWorkload) []mpisim.Program {
	topo, err := g.resolveTopo()
	if err != nil {
		t.Fatal(err)
	}
	inj := make(map[int]map[int]sim.Time)
	for _, in := range g.Injections {
		if inj[in.Rank] == nil {
			inj[in.Rank] = make(map[int]sim.Time)
		}
		inj[in.Rank][in.Step] += in.Duration
	}
	progs := make([]mpisim.Program, topo.Ranks())
	for i := range progs {
		phases, delays := refExpandRank(g, i)
		for step, d := range inj[i] {
			delays[step] += d
		}
		var p mpisim.Program
		for step := 0; step < g.Steps; step++ {
			if d := delays[step]; d > 0 {
				p = append(p, mpisim.Delay{Duration: d, Step: step})
			}
			p = append(p, mpisim.Compute{Duration: phases[step], Step: step})
			for _, to := range topo.SendTargets(i) {
				p = append(p, mpisim.Isend{To: to, Bytes: g.Bytes, Tag: step})
			}
			for _, from := range topo.RecvSources(i) {
				p = append(p, mpisim.Irecv{From: from, Bytes: g.Bytes, Tag: step})
			}
			p = append(p, mpisim.Waitall{Step: step})
		}
		progs[i] = p
	}
	return progs
}

// refReplayPrograms is Replay.Programs' original per-rank loop.
func refReplayPrograms(t *testing.T, w Replay) []mpisim.Program {
	topo, err := w.Topology()
	if err != nil {
		t.Fatal(err)
	}
	rec := w.Data
	extra := make(map[int]map[int]sim.Time)
	for _, in := range w.Injections {
		if extra[in.Rank] == nil {
			extra[in.Rank] = make(map[int]sim.Time)
		}
		extra[in.Rank][in.Step] += in.Duration
	}
	progs := make([]mpisim.Program, rec.Ranks)
	for i := range progs {
		var p mpisim.Program
		for step := 0; step < rec.Steps; step++ {
			if d := sim.Time(rec.Delay[i][step]) + extra[i][step]; d > 0 {
				p = append(p, mpisim.Delay{Duration: d, Step: step})
			}
			p = append(p, mpisim.Compute{Duration: sim.Time(rec.Exec[i][step]), Step: step})
			for _, to := range topo.SendTargets(i) {
				p = append(p, mpisim.Isend{To: to, Bytes: rec.Bytes, Tag: step})
			}
			for _, from := range topo.RecvSources(i) {
				p = append(p, mpisim.Irecv{From: from, Bytes: rec.Bytes, Tag: step})
			}
			p = append(p, mpisim.Waitall{Step: step})
		}
		progs[i] = p
	}
	return progs
}

// testReplay builds a recorded 6-rank periodic chain with irregular
// phases and a recorded delay on every third (rank, step).
func testReplay() Replay {
	const ranks, steps = 6, 10
	r := rng.New(3)
	rec := trace.Recorded{Topology: "chain:6:periodic", Ranks: ranks, Steps: steps, Bytes: 4096, TexecNS: 3e6}
	for i := 0; i < ranks; i++ {
		exec, delay := make([]float64, steps), make([]float64, steps)
		for s := range exec {
			exec[s] = 3e-3 * (0.5 + r.Float64())
			if (i+s)%3 == 0 {
				delay[s] = 1e-3 * r.Float64()
			}
		}
		rec.Exec = append(rec.Exec, exec)
		rec.Delay = append(rec.Delay, delay)
		rec.Noise = append(rec.Noise, make([]float64, steps))
	}
	return Replay{Source: "test.iwt2", Data: &rec, Injections: []noise.Injection{
		{Rank: 0, Step: 0, Duration: 2e-3}, // on a recorded delay
		{Rank: 2, Step: 3, Duration: 1e-3}, // where none was recorded
		{Rank: 2, Step: 3, Duration: 4e-3},
		{Rank: 5, Step: 9, Duration: 7e-3},
	}}
}

// TestBulkLoopMatchesGenLoop pins GenWorkload's programs, built through
// the shared-box BulkLoop, to the original per-op-boxing loop: the
// stochastic delay process plus one-off injections, two of them at the
// same (rank, step).
func TestBulkLoopMatchesGenLoop(t *testing.T) {
	g := testGen(9)
	g.Injections = []noise.Injection{
		{Rank: 8, Step: 7, Duration: 4e-3},
		{Rank: 3, Step: 2, Duration: 1e-3},
		{Rank: 3, Step: 2, Duration: 3e-3},
		{Rank: 0, Step: 0, Duration: 2e-3},
	}
	delayed := 0
	for _, op := range refGenPrograms(t, g)[5] {
		if _, ok := op.(mpisim.Delay); ok {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatal("the delay process drew nothing on rank 5; the test needs process delays")
	}
	sameOps(t, mustPrograms(t, g), refGenPrograms(t, g))
}

// TestBulkLoopMatchesReplayLoop pins Replay's programs to the original
// loop, with recorded delays plus extra injections.
func TestBulkLoopMatchesReplayLoop(t *testing.T) {
	w := testReplay()
	sameOps(t, mustPrograms(t, w), refReplayPrograms(t, w))
}

// TestBulkLoopMatchesJobMix pins a mix of a generator and a replay
// part, shifted into rank blocks, to the original loops' programs.
func TestBulkLoopMatchesJobMix(t *testing.T) {
	g, w := testGen(5), testReplay()
	w.Injections = nil
	m := JobMix{Parts: []Part{g, w}, Injections: []noise.Injection{
		{Rank: 1, Step: 4, Duration: 3e-3},
		{Rank: 7, Step: 2, Duration: 5e-3}, // rank 2 of the replay part
	}}
	// The reference routes the mix-level injections to their parts by hand.
	g.Injections = m.Injections[:1]
	w.Injections = []noise.Injection{{Rank: 2, Step: 2, Duration: 5e-3}}
	want := refGenPrograms(t, g)
	for _, p := range refReplayPrograms(t, w) {
		shifted, err := shiftProgram(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, shifted)
	}
	sameOps(t, mustPrograms(t, m), want)
}
