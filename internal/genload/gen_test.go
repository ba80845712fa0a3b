package genload

import (
	"reflect"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

func mustPrograms(t *testing.T, p Part) []mpisim.Program {
	t.Helper()
	progs, err := p.Programs()
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func testGen(ranks int) GenWorkload {
	return GenWorkload{
		Ranks: ranks,
		Steps: 8,
		Phase: Gamma{Shape: 2, Scale: 1.5e-3},
		Bytes: DefaultBytes,
		Delay: Exp{MeanTime: 1e-3},
		Every: Exp{MeanTime: 10e-3},
		Seed:  7,
	}
}

// TestGenProgramsDeterministic checks the generator expands to
// identical programs on repeated calls — the property that lets the
// whole downstream pipeline (shards, sweeps, caches) treat a generated
// workload like a hand-written one.
func TestGenProgramsDeterministic(t *testing.T) {
	g := testGen(8)
	a := mustPrograms(t, g)
	b := mustPrograms(t, g)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same generator differ")
	}
	if len(a) != 8 {
		t.Fatalf("got %d programs, want 8", len(a))
	}
}

// expand draws one rank's phase and delay rows into fresh slices.
func expand(g GenWorkload, rank int) (phases, delays []sim.Time) {
	phases, delays = make([]sim.Time, g.Steps), make([]sim.Time, g.Steps)
	g.expandRank(rank, phases, delays)
	return phases, delays
}

// TestGenRankStreamsIndependent checks a rank's draws depend only on
// (seed, rank), never on how many other ranks exist — the invariant
// that keeps sharded execution byte-identical.
func TestGenRankStreamsIndependent(t *testing.T) {
	small, large := testGen(4), testGen(32)
	for rank := 0; rank < 4; rank++ {
		ps, ds := expand(small, rank)
		pl, dl := expand(large, rank)
		if !reflect.DeepEqual(ps, pl) || !reflect.DeepEqual(ds, dl) {
			t.Errorf("rank %d draws change with the rank count", rank)
		}
	}
}

// TestGenSeedChangesDraws checks different seeds give different draws.
func TestGenSeedChangesDraws(t *testing.T) {
	a := testGen(4)
	b := testGen(4)
	b.Seed = 8
	pa, _ := expand(a, 0)
	pb, _ := expand(b, 0)
	if reflect.DeepEqual(pa, pb) {
		t.Fatal("different seeds drew identical phases")
	}
}

// TestGenDelayBound checks a mis-parameterized injection process (mean
// gap far below the phase time) terminates with a bounded event count.
func TestGenDelayBound(t *testing.T) {
	g := testGen(2)
	g.Every = Det{Value: 1e-12} // one event per picosecond
	_, delays := expand(g, 0)
	// The expansion is capped, so the total injected time stays finite
	// and the call returns at all (the real assertion).
	total := sim.Time(0)
	for _, d := range delays {
		total += d
	}
	if total <= 0 {
		t.Fatal("saturated injection process injected nothing")
	}
}

// TestGenOpShape pins the generated per-step op sequence to the
// bulk-synchronous shape ([Delay] Compute Isend* Irecv* Waitall) that
// the trace recorder and replay reconstruction both assume.
func TestGenOpShape(t *testing.T) {
	g := testGen(3)
	g.Injections = []noise.Injection{{Rank: 1, Step: 0, Duration: 5e-3}}
	progs := mustPrograms(t, g)
	p := progs[1] // interior rank: 2 sends, 2 recvs
	if _, ok := p[0].(mpisim.Delay); !ok {
		t.Fatalf("rank 1 step 0 should open with the injected Delay, got %T", p[0])
	}
	want := []interface{}{
		mpisim.Delay{}, mpisim.Compute{},
		mpisim.Isend{}, mpisim.Isend{}, mpisim.Irecv{}, mpisim.Irecv{},
		mpisim.Waitall{},
	}
	for i, w := range want {
		if reflect.TypeOf(p[i]) != reflect.TypeOf(w) {
			t.Fatalf("op %d is %T, want %T", i, p[i], w)
		}
	}
}

// TestGenValidate checks parameter validation.
func TestGenValidate(t *testing.T) {
	cases := []func(*GenWorkload){
		func(g *GenWorkload) { g.Steps = 0 },
		func(g *GenWorkload) { g.Phase = nil },
		func(g *GenWorkload) { g.Bytes = 0 },
		func(g *GenWorkload) { g.Every = nil }, // delay without every
		func(g *GenWorkload) { g.Delay = nil }, // every without delay
		func(g *GenWorkload) { g.Injections = []noise.Injection{{Rank: 99, Step: 0, Duration: 1e-3}} },
		func(g *GenWorkload) { g.Injections = []noise.Injection{{Rank: 0, Step: 99, Duration: 1e-3}} },
		func(g *GenWorkload) { g.Injections = []noise.Injection{{Rank: 0, Step: 0, Duration: 0}} },
		func(g *GenWorkload) { g.Ranks = 0 },
	}
	for i, mutate := range cases {
		g := testGen(4)
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d validated, want error", i)
		}
	}
	g := testGen(4)
	if err := g.Validate(); err != nil {
		t.Fatalf("baseline generator invalid: %v", err)
	}
}

// TestJobMixPrograms checks the mix concatenates its parts' programs
// with communication partners shifted into each part's rank block, and
// routes mix-level injections to the owning part.
func TestJobMixPrograms(t *testing.T) {
	a, b := testGen(3), testGen(4)
	b.Seed = 9
	m := JobMix{
		Parts:      []Part{a, b},
		Injections: []noise.Injection{{Rank: 4, Step: 0, Duration: 5e-3}}, // rank 1 of part b
	}
	progs := mustPrograms(t, m)
	if len(progs) != 7 {
		t.Fatalf("got %d programs, want 7", len(progs))
	}

	// Part b's rank 0 is global rank 3; its chain neighbor rank 1 must
	// appear as global rank 4 in its sends.
	var sends []int
	for _, op := range progs[3] {
		if s, ok := op.(mpisim.Isend); ok && s.Tag == 0 {
			sends = append(sends, s.To)
		}
	}
	if !reflect.DeepEqual(sends, []int{4}) {
		t.Fatalf("block-shifted sends of global rank 3 = %v, want [4]", sends)
	}

	// The injection at global rank 4 lands as a Delay op in that
	// program (part b, local rank 1, which draws no process delay at
	// step 0 large enough to hide it — check the aggregate).
	var injected sim.Time
	for _, op := range progs[4] {
		if d, ok := op.(mpisim.Delay); ok && d.Step == 0 {
			injected = d.Duration
		}
	}
	if injected < 5e-3 {
		t.Fatalf("mix-level injection missing from global rank 4 (delay %v)", injected)
	}

	// Part programs are untouched by the mix: part b rank 1 standalone
	// has the same compute durations.
	solo := mustPrograms(t, b)[1]
	var soloComp, mixComp []sim.Time
	for _, op := range solo {
		if c, ok := op.(mpisim.Compute); ok {
			soloComp = append(soloComp, c.Duration)
		}
	}
	for _, op := range progs[4] {
		if c, ok := op.(mpisim.Compute); ok {
			mixComp = append(mixComp, c.Duration)
		}
	}
	if !reflect.DeepEqual(soloComp, mixComp) {
		t.Fatal("mixing changed a part's compute draws")
	}
}

// TestJobMixValidate checks nesting and addressing rules.
func TestJobMixValidate(t *testing.T) {
	if err := (JobMix{}).Validate(); err == nil {
		t.Error("empty mix validated")
	}
	inner := JobMix{Parts: []Part{testGen(2)}}
	if err := (JobMix{Parts: []Part{inner}}).Validate(); err == nil {
		t.Error("nested mix validated")
	}
	m := JobMix{
		Parts:      []Part{testGen(2), testGen(2)},
		Injections: []noise.Injection{{Rank: 4, Step: 0, Duration: 1e-3}},
	}
	if err := m.Validate(); err == nil {
		t.Error("out-of-range mix injection validated")
	}
}

// TestJobMixDelays checks part delays shift to global ranks.
func TestJobMixDelays(t *testing.T) {
	a, b := testGen(3), testGen(4)
	b.Injections = []noise.Injection{{Rank: 1, Step: 2, Duration: 1e-3}}
	m := JobMix{Parts: []Part{a, b}}
	ds := m.Delays()
	if len(ds) != 1 || ds[0].Rank != 4 {
		t.Fatalf("part delay not shifted to global rank: %+v", ds)
	}
}

// TestBlocksTopology checks the composite metric: part structure within
// a block, unreachable (-1) across blocks, global out-of-range safe.
func TestBlocksTopology(t *testing.T) {
	ta, err := testGen(3).Topology()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testGen(4).Topology()
	if err != nil {
		t.Fatal(err)
	}
	b := Blocks{Parts: []topology.Topology{ta, tb}}
	if b.Ranks() != 7 {
		t.Fatalf("Ranks = %d, want 7", b.Ranks())
	}
	if d := b.HopDistance(0, 2); d != 2 {
		t.Errorf("within-block distance = %d, want 2", d)
	}
	if d := b.HopDistance(3, 6); d != 3 {
		t.Errorf("second-block distance = %d, want 3", d)
	}
	if d := b.HopDistance(0, 3); d != -1 {
		t.Errorf("cross-block distance = %d, want -1", d)
	}
	if d := b.HopDistance(-1, 0); d != -1 {
		t.Errorf("negative rank distance = %d, want -1", d)
	}
	if d := b.HopDistance(0, 7); d != -1 {
		t.Errorf("out-of-range distance = %d, want -1", d)
	}
	if got := b.SendTargets(3); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("SendTargets(3) = %v, want [4]", got)
	}
	if got := b.SendTargets(99); got != nil {
		t.Errorf("SendTargets(99) = %v, want nil", got)
	}
}
