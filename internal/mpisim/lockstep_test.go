package mpisim_test

// Differential tests for the lockstep solver. Run computes every
// eligible run with the max-plus recurrence; RunEngine forces the event
// engine on the same inputs. On randomized lockstep scenarios the two
// must agree bit for bit on the whole Result and on every rank's OnWait
// stream, and every ineligible shape must keep the engine.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/genload"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wave"
	"repro/internal/workload"
)

// lockTopology is what the scenario generator needs of a topology.
type lockTopology interface {
	topology.Topology
	SendTargets(int) []int
	RecvSources(int) []int
}

// lockCase is one randomized lockstep scenario.
type lockCase struct {
	name  string
	cfg   mpisim.Config
	progs []mpisim.Program
	limit int // the network's eager limit
	// noise builds a fresh injector: the built-in ones keep per-rank
	// stream state, so every run needs its own.
	noise func() mpisim.NoiseFunc
}

// randomTopology draws an open or periodic chain with d <= 3 (uni- or
// bidirectional) or a 2-D or 3-D torus.
func randomTopology(t *testing.T, r *rand.Rand) (lockTopology, string) {
	t.Helper()
	dir := topology.Bidirectional
	if r.Intn(2) == 0 {
		dir = topology.Unidirectional
	}
	var topo lockTopology
	var err error
	var name string
	switch r.Intn(4) {
	case 0:
		n, d := 2+r.Intn(40), 1+r.Intn(3)
		topo, err = topology.NewChain(n, d, dir, topology.Open)
		name = fmt.Sprintf("chain%d_d%d_%s", n, d, dir)
	case 1:
		d := 1 + r.Intn(3)
		n := 2*d + 1 + r.Intn(40)
		topo, err = topology.NewChain(n, d, dir, topology.Periodic)
		name = fmt.Sprintf("ring%d_d%d_%s", n, d, dir)
	case 2:
		a, b := 3+r.Intn(5), 3+r.Intn(5)
		topo, err = topology.Torus2D(a, b)
		name = fmt.Sprintf("torus%dx%d", a, b)
	default:
		a, b, c := 3+r.Intn(2), 3+r.Intn(2), 3+r.Intn(3)
		topo, err = topology.Torus3D(a, b, c)
		name = fmt.Sprintf("torus%dx%dx%d", a, b, c)
	}
	if err != nil {
		t.Fatal(err)
	}
	return topo, name
}

// randomNet draws Hockney, LogGOPS with send/receive overheads and a
// per-byte cost, or the Emmy or Meggie hierarchical model, and returns
// it with its eager limit.
func randomNet(t *testing.T, r *rand.Rand, ranks int) (netmodel.Model, int, string) {
	t.Helper()
	const limit = 16 << 10
	switch r.Intn(4) {
	case 0:
		m, err := netmodel.NewHockney(sim.Micro(2), 3e9, limit)
		if err != nil {
			t.Fatal(err)
		}
		return m, limit, "hockney"
	case 1:
		m, err := netmodel.NewLogGOPS(sim.Micro(1.5), sim.Micro(0.7), sim.Micro(0.9), 1/4e9, 2e-11, limit)
		if err != nil {
			t.Fatal(err)
		}
		return m, limit, "loggops"
	default:
		mach := cluster.Emmy()
		if r.Intn(2) == 0 {
			mach = cluster.Meggie()
		}
		place, err := mach.Placement(ranks)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mach.NetModel(place)
		if err != nil {
			t.Fatal(err)
		}
		return m, mach.EagerLimit, mach.Name
	}
}

// randomLockCase builds one scenario from r.
func randomLockCase(t *testing.T, r *rand.Rand) lockCase {
	t.Helper()
	topo, name := randomTopology(t, r)
	n := topo.Ranks()
	net, limit, netName := randomNet(t, r, n)
	bytes := limit/2 + r.Intn(limit/2)
	proto := "eager"
	if r.Intn(2) == 0 {
		bytes, proto = limit+1+r.Intn(4*limit), "rndv"
	}
	steps := 2 + r.Intn(6)
	texec := sim.Milli(1 + 2*r.Float64())
	jitter := r.Int63()
	loop := genload.BulkLoop{
		Topo:  topo,
		Steps: steps,
		Bytes: bytes,
		// Per-step exec times vary by rank and step; now and then a rank
		// also carries its own delay or a zero-length phase.
		Fill: func(rank int, exec, delay []sim.Time) {
			rr := rand.New(rand.NewSource(jitter ^ int64(rank)*0x9e3779b9))
			for s := range exec {
				exec[s] = texec * sim.Time(0.5+rr.Float64())
				switch rr.Intn(12) {
				case 0:
					exec[s] = 0
				case 1:
					delay[s] = texec * sim.Time(rr.Float64())
				}
			}
		},
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		loop.Injections = append(loop.Injections, noise.Injection{Rank: r.Intn(n), Step: r.Intn(steps), Duration: sim.Milli(2 + 8*r.Float64())})
	}
	// Two injections at one (rank, step) sum into one Delay.
	twin := loop.Injections[0]
	twin.Duration = sim.Milli(1)
	loop.Injections = append(loop.Injections, twin)

	c := lockCase{
		name:  fmt.Sprintf("%s_%s_%s_%d", name, netName, proto, steps),
		cfg:   mpisim.Config{Ranks: n, Net: net},
		progs: loop.Programs(),
		limit: limit,
	}
	// Two variants leave the bulk-synchronous pattern: tags that rise
	// unevenly, and two messages a pair and direction per epoch, one of
	// them sent out of tag order, which the pairing check must sort.
	switch r.Intn(3) {
	case 0:
		c.progs = retagged(c.progs)
		c.name += "_retag"
	case 1:
		c.progs = doubled(c.progs)
		c.name += "_doubled"
	}
	if r.Intn(2) == 0 {
		seed, level := r.Uint64(), 0.02+0.2*r.Float64()
		c.noise = func() mpisim.NoiseFunc { return noise.Exponential(seed, level, texec) }
		c.name += "_noise"
	}
	c.cfg.Trace = []mpisim.TraceMode{mpisim.TraceFull, mpisim.TraceSteps, mpisim.TraceOff}[r.Intn(3)]
	c.cfg.Shards = []int{0, 2, 4}[r.Intn(3)]
	c.name += fmt.Sprintf("_%s_s%d", c.cfg.Trace, c.cfg.Shards)
	return c
}

// retagged gives epoch s's messages the tag s*s+s, which still rises
// from epoch to epoch but no longer evenly.
func retagged(progs []mpisim.Program) []mpisim.Program {
	out := make([]mpisim.Program, len(progs))
	for i, p := range progs {
		q := make(mpisim.Program, len(p))
		for k, op := range p {
			switch op := op.(type) {
			case mpisim.Isend:
				op.Tag = op.Tag*op.Tag + op.Tag
				q[k] = op
			case mpisim.Irecv:
				op.Tag = op.Tag*op.Tag + op.Tag
				q[k] = op
			default:
				q[k] = op
			}
		}
		out[i] = q
	}
	return out
}

// doubled sends every message twice, with tags 2s+1 and 2s, the later
// tag first, and receives them in tag order: two messages a pair and
// direction per epoch, one of them out of tag order.
func doubled(progs []mpisim.Program) []mpisim.Program {
	out := make([]mpisim.Program, len(progs))
	for i, p := range progs {
		q := make(mpisim.Program, 0, 2*len(p))
		for _, op := range p {
			switch op := op.(type) {
			case mpisim.Isend:
				hi, lo := op, op
				hi.Tag, lo.Tag = 2*op.Tag+1, 2*op.Tag
				q = append(q, hi, lo)
			case mpisim.Irecv:
				lo, hi := op, op
				lo.Tag, hi.Tag = 2*op.Tag, 2*op.Tag+1
				q = append(q, lo, hi)
			default:
				q = append(q, op)
			}
		}
		out[i] = q
	}
	return out
}

// waitRec is one streamed OnWait interval.
type waitRec struct {
	step       int
	start, end sim.Time
}

// runStreamed runs the case through run with fresh noise and returns the
// result with each rank's OnWait stream.
func runStreamed(t *testing.T, c lockCase, run func(mpisim.Config, []mpisim.Program) (*mpisim.Result, error)) (*mpisim.Result, [][]waitRec) {
	t.Helper()
	cfg := c.cfg
	if c.noise != nil {
		cfg.Noise = c.noise()
		cfg.NoiseFactory = c.noise
	}
	waits := make([][]waitRec, cfg.Ranks)
	cfg.OnWait = func(rank, step int, start, end sim.Time) {
		waits[rank] = append(waits[rank], waitRec{step, start, end})
	}
	res, err := run(cfg, c.progs)
	if err != nil {
		t.Fatal(err)
	}
	return res, waits
}

func sameTime(a, b sim.Time) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// diffResults reports the first difference between two results, bit for
// bit, or "".
func diffResults(got, want *mpisim.Result) string {
	if !sameTime(got.End, want.End) {
		return fmt.Sprintf("End %v, engine %v", got.End, want.End)
	}
	if got.Events != want.Events {
		return fmt.Sprintf("Events %d, engine %d", got.Events, want.Events)
	}
	if len(got.Traces.Ranks) != len(want.Traces.Ranks) {
		return fmt.Sprintf("%d rank traces, engine %d", len(got.Traces.Ranks), len(want.Traces.Ranks))
	}
	for i, g := range got.Traces.Ranks {
		w := want.Traces.Ranks[i]
		if g.Rank != w.Rank || len(g.Segments) != len(w.Segments) || len(g.StepEnd) != len(w.StepEnd) {
			return fmt.Sprintf("rank %d: %d segments and %d step ends, engine rank %d has %d and %d",
				g.Rank, len(g.Segments), len(g.StepEnd), w.Rank, len(w.Segments), len(w.StepEnd))
		}
		for k, s := range g.Segments {
			ws := w.Segments[k]
			if s.Kind != ws.Kind || s.Step != ws.Step || !sameTime(s.Start, ws.Start) || !sameTime(s.End, ws.End) {
				return fmt.Sprintf("rank %d segment %d: %+v, engine %+v", g.Rank, k, s, ws)
			}
		}
		for k, e := range g.StepEnd {
			if !sameTime(e, w.StepEnd[k]) {
				return fmt.Sprintf("rank %d step %d ends at %v, engine %v", g.Rank, k, e, w.StepEnd[k])
			}
		}
	}
	return ""
}

// diffWaits compares two per-rank OnWait streams bit for bit.
func diffWaits(got, want [][]waitRec) string {
	for rank := range want {
		if len(got[rank]) != len(want[rank]) {
			return fmt.Sprintf("rank %d: %d waits streamed, engine %d", rank, len(got[rank]), len(want[rank]))
		}
		for k, w := range want[rank] {
			g := got[rank][k]
			if g.step != w.step || !sameTime(g.start, w.start) || !sameTime(g.end, w.end) {
				return fmt.Sprintf("rank %d wait %d: %+v, engine %+v", rank, k, g, w)
			}
		}
	}
	return ""
}

// TestLockstepMatchesEngine is the solver's oracle: randomized lockstep
// scenarios, computed by Run (which must take the solver) and by the
// event engine, must agree bit for bit on segments, step ends, End,
// Events and every rank's OnWait stream. A second series moves the
// boundaries of the solver's schedule runs (restepped, resized, steadied)
// and piles up its side list of delays (delayed).
func TestLockstepMatchesEngine(t *testing.T) {
	cases, boundaryCases := 300, 160
	if testing.Short() {
		cases, boundaryCases = 40, 40
	}
	r := rand.New(rand.NewSource(27))
	for i := 0; i < cases; i++ {
		c := randomLockCase(t, r)
		t.Run(fmt.Sprintf("%03d_%s", i, c.name), func(t *testing.T) { checkLockCase(t, c) })
	}
	r = rand.New(rand.NewSource(29))
	for i := 0; i < boundaryCases; i++ {
		c := randomLockCase(t, r)
		switch i % 4 {
		case 0:
			c.progs = restepped(c.progs, r)
			c.name += "_restep"
		case 1:
			c.progs = resized(c.progs, c.limit, r.Int63())
			c.name += "_resize"
		case 2:
			c.progs = steadied(c.progs, r)
			c.name += "_steady"
		case 3:
			c.progs = delayed(c.progs, r)
			c.name += "_delayed"
		}
		t.Run(fmt.Sprintf("boundary%03d_%s", i, c.name), func(t *testing.T) { checkLockCase(t, c) })
	}
}

// checkLockCase runs one scenario through the solver and the engine.
func checkLockCase(t *testing.T, c lockCase) {
	t.Helper()
	dec, err := mpisim.PlanShards(c.cfg, c.progs)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Lockstep || dec.EngineReason != "" {
		t.Fatalf("lockstep scenario takes the engine: %q", dec.EngineReason)
	}
	got, gotWaits := runStreamed(t, c, mpisim.Run)
	want, wantWaits := runStreamed(t, c, mpisim.RunEngine)
	if d := diffResults(got, want); d != "" {
		t.Fatalf("solver diverges from the engine: %s", d)
	}
	if d := diffWaits(gotWaits, wantWaits); d != "" {
		t.Fatalf("OnWait streams diverge: %s", d)
	}
}

// epochs splits a program at its Waitalls: epoch e is ops[e], its
// Waitall last.
func epochs(p mpisim.Program) [][]mpisim.Op {
	var out [][]mpisim.Op
	start := 0
	for k, op := range p {
		if _, ok := op.(mpisim.Waitall); ok {
			out = append(out, slices.Clone(p[start:k+1]))
			start = k + 1
		}
	}
	return out
}

// restepped moves each rank's Compute, Delay and Waitall Steps off the
// epoch index and changes the offsets at a random epoch: before it the
// Compute and Delay Steps sit c0 and d0 above the index and the Waitall
// on it, from it on they sit c1 and d1 above and the Waitall one below,
// so that epoch's Waitall repeats the previous step.
func restepped(progs []mpisim.Program, r *rand.Rand) []mpisim.Program {
	out := make([]mpisim.Program, len(progs))
	for i, p := range progs {
		eps := epochs(p)
		change := 1 + r.Intn(len(eps))
		c0, d0 := r.Intn(3), r.Intn(3)
		c1, d1 := c0+1+r.Intn(3), d0+2+r.Intn(3)
		q := make(mpisim.Program, 0, len(p))
		for e, ops := range eps {
			c, d, w := e+c0, e+d0, e
			if e >= change {
				c, d, w = e+c1, e+d1, e-1
			}
			for _, op := range ops {
				switch op := op.(type) {
				case mpisim.Compute:
					op.Step = c
					q = append(q, op)
				case mpisim.Delay:
					op.Step = d
					q = append(q, op)
				case mpisim.Waitall:
					op.Step = w
					q = append(q, op)
				default:
					q = append(q, op)
				}
			}
		}
		out[i] = q
	}
	return out
}

// resized changes the size of every message a sender sends in an epoch
// that a hash of (seed, sender, epoch) picks, to the other side of the
// eager limit, in its Isends and the matching Irecvs alike.
func resized(progs []mpisim.Program, limit int, seed int64) []mpisim.Program {
	size := func(from, epoch, bytes int) int {
		h := uint64(seed) ^ uint64(from)*0x9e3779b97f4a7c15 ^ uint64(epoch)*0xc2b2ae3d27d4eb4f
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		if (h>>32)%3 != 0 {
			return bytes
		}
		if bytes <= limit {
			return 2*limit + epoch
		}
		return limit/4 + epoch
	}
	out := make([]mpisim.Program, len(progs))
	for i, p := range progs {
		q := make(mpisim.Program, len(p))
		epoch := 0
		for k, op := range p {
			switch op := op.(type) {
			case mpisim.Isend:
				op.Bytes = size(i, epoch, op.Bytes)
				q[k] = op
			case mpisim.Irecv:
				op.Bytes = size(op.From, epoch, op.Bytes)
				q[k] = op
			case mpisim.Waitall:
				epoch++
				q[k] = op
			default:
				q[k] = op
			}
		}
		out[i] = q
	}
	return out
}

// steadied gives two ranks in three a Compute duration that stays
// constant for a random number of epochs (all of them, now and then)
// and varies as before after that.
func steadied(progs []mpisim.Program, r *rand.Rand) []mpisim.Program {
	out := make([]mpisim.Program, len(progs))
	for i, p := range progs {
		q := slices.Clone(p)
		if r.Intn(3) > 0 {
			steady, epoch := 1+r.Intn(len(epochs(p))), 0
			var dur sim.Time
			for k, op := range q {
				switch op := op.(type) {
				case mpisim.Compute:
					if epoch == 0 {
						dur = op.Duration
					} else if epoch < steady {
						op.Duration = dur
						q[k] = op
					}
				case mpisim.Waitall:
					epoch++
				}
			}
		}
		out[i] = q
	}
	return out
}

// delayed splits every Delay in two and puts extra Delays on the first
// and last epochs of two adjacent ranks: two on the first epoch of rank
// a and three on the last epoch of rank a+1.
func delayed(progs []mpisim.Program, r *rand.Rand) []mpisim.Program {
	out := make([]mpisim.Program, len(progs))
	a := r.Intn(len(progs) - 1)
	for i, p := range progs {
		eps := epochs(p)
		q := make(mpisim.Program, 0, len(p)+8)
		for e, ops := range eps {
			extra := 0
			switch {
			case i == a && e == 0:
				extra = 2
			case i == a+1 && e == len(eps)-1:
				extra = 3
			}
			for x := 0; x < extra; x++ {
				q = append(q, mpisim.Delay{Duration: sim.Micro(50 + 100*r.Float64()), Step: e})
			}
			for _, op := range ops {
				if d, ok := op.(mpisim.Delay); ok {
					head := d
					head.Duration = d.Duration * 0.375
					d.Duration -= head.Duration
					q = append(q, head, d)
					continue
				}
				q = append(q, op)
			}
		}
		out[i] = q
	}
	return out
}

// TestLockstepNoiseOrder pins the NoiseFunc contract the solver relies
// on: one draw per Compute, in each rank's step order, with a negative
// draw clamped to none.
func TestLockstepNoiseOrder(t *testing.T) {
	topo, err := topology.NewChain(5, 1, topology.Bidirectional, topology.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.BulkSync{Topo: topo, Steps: 4, Texec: sim.Milli(1), Bytes: 1024}
	progs, err := wl.Programs()
	if err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	calls := make([][]int, topo.Ranks())
	cfg := mpisim.Config{Ranks: topo.Ranks(), Net: net, Noise: func(rank, step int) sim.Time {
		calls[rank] = append(calls[rank], step)
		return sim.Micro(float64(rank) - 2) // ranks 0 and 1 draw negative noise, rank 2 none
	}}
	if dec, err := mpisim.PlanShards(cfg, progs); err != nil || !dec.Lockstep {
		t.Fatalf("ring does not take the solver: %+v, %v", dec, err)
	}
	res, err := mpisim.Run(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	for rank, steps := range calls {
		if fmt.Sprint(steps) != "[0 1 2 3]" {
			t.Errorf("rank %d drew noise for steps %v, want [0 1 2 3]", rank, steps)
		}
		want := 0
		if rank > 2 {
			want = 4
		}
		got := 0
		for _, seg := range res.Traces.Ranks[rank].Segments {
			if seg.Kind == trace.Noise {
				got++
			}
		}
		if got != want {
			t.Errorf("rank %d recorded %d noise segments, want %d", rank, got, want)
		}
	}
}

// TestLockstepIneligibleRunsTakeTheEngine has one row per reason the
// solver declines a run: PlanShards must name it, and Run must give
// what the engine gives (an error included).
func TestLockstepIneligibleRunsTakeTheEngine(t *testing.T) {
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	ms := sim.Milli(1)
	// pair is a two-rank exchange of one step, the base of most rows.
	pair := func() []mpisim.Program {
		return []mpisim.Program{
			{mpisim.Compute{Duration: ms}, mpisim.Isend{To: 1, Bytes: 64}, mpisim.Irecv{From: 1, Bytes: 64}, mpisim.Waitall{}},
			{mpisim.Compute{Duration: ms}, mpisim.Isend{To: 0, Bytes: 64}, mpisim.Irecv{From: 0, Bytes: 64}, mpisim.Waitall{}},
		}
	}
	base := mpisim.Config{Ranks: 2, Net: net}
	sockets := func(c mpisim.Config) mpisim.Config {
		c.SocketOf = func(rank int) int { return rank }
		c.SocketBandwidth = 40e9
		return c
	}
	cases := []struct {
		name   string
		cfg    mpisim.Config
		progs  []mpisim.Program
		reason string
	}{
		{"independent rendezvous", func() mpisim.Config { c := base; c.Progress = mpisim.IndependentRendezvous; return c }(), pair(), "independent rendezvous progress"},
		{"finite eager buffers", func() mpisim.Config { c := base; c.EagerMaxOutstanding = 1; return c }(), pair(), "finite eager buffers"},
		{"bandwidth charging", func() mpisim.Config { c := sockets(base); c.ChargeCommBandwidth = true; return c }(), pair(), "communication bandwidth charging"},
		{"memory-bound compute", sockets(base), func() []mpisim.Program {
			p := pair()
			p[1][0] = mpisim.Compute{Duration: ms, MemBytes: 1e6}
			return p
		}(), "rank 1 op 0: memory-bound Compute"},
		{"delay after compute", base, func() []mpisim.Program {
			p := pair()
			p[0] = append(mpisim.Program{p[0][0], mpisim.Delay{Duration: ms}}, p[0][1:]...)
			return p
		}(), "rank 0 op 1: Delay after the epoch's Compute"},
		{"two computes", base, func() []mpisim.Program {
			p := pair()
			p[1] = append(mpisim.Program{p[1][0]}, p[1]...)
			return p
		}(), "rank 1 op 1: second Compute in one epoch"},
		{"isend after irecv", base, func() []mpisim.Program {
			p := pair()
			p[0][1], p[0][2] = p[0][2], p[0][1]
			return p
		}(), "rank 0 op 2: Isend outside the epoch's send phase"},
		{"irecv before compute", base, func() []mpisim.Program {
			p := pair()
			p[1][0], p[1][1], p[1][2] = p[1][2], p[1][0], p[1][1]
			return p
		}(), "rank 1 op 0: Irecv before the epoch's Compute"},
		{"epoch without compute", base, func() []mpisim.Program {
			p := pair()
			p[0] = append(p[0], mpisim.Waitall{Step: 1})
			p[1] = append(p[1], mpisim.Waitall{Step: 1})
			return p
		}(), "rank 0 op 4: epoch without a Compute"},
		{"no final waitall", base, func() []mpisim.Program {
			p := pair()
			p[1] = append(p[1], mpisim.Compute{Duration: ms})
			return p
		}(), "rank 1 does not end in a Waitall"},
		{"trailing delay", base, func() []mpisim.Program {
			p := pair()
			p[0] = append(p[0], mpisim.Delay{Duration: ms, Step: 1})
			return p
		}(), "rank 0 does not end in a Waitall"},
		{"delay-only program", base, []mpisim.Program{{mpisim.Compute{Duration: ms}, mpisim.Waitall{}}, {mpisim.Delay{Duration: ms}}}, "rank 1 does not end in a Waitall"},
		{"empty program", base, []mpisim.Program{{mpisim.Compute{Duration: ms}, mpisim.Waitall{}}, {}}, "rank 1 does not end in a Waitall"},
		{"tag reused across epochs", base, func() []mpisim.Program {
			p := pair()
			for i := range p {
				p[i] = append(p[i], p[i]...) // step two repeats tag 0
			}
			return p
		}(), "rank 0 op 5: tag 0 does not exceed the tags of earlier epochs"},
		{"isend without irecv", base, func() []mpisim.Program {
			p := pair()
			p[1] = mpisim.Program{mpisim.Compute{Duration: ms}, mpisim.Isend{To: 0, Bytes: 64}, mpisim.Waitall{}}
			return p
		}(), "ranks 0 and 1: Isends and Irecvs do not pair by tag and epoch"},
		{"irecv without isend", base, []mpisim.Program{
			{mpisim.Compute{Duration: ms}, mpisim.Waitall{}},
			{mpisim.Compute{Duration: ms}, mpisim.Irecv{From: 0, Bytes: 64}, mpisim.Waitall{}},
		}, "rank 1's messages with rank 0 are unpaired"},
		{"send without any traffic back", base, []mpisim.Program{
			{mpisim.Compute{Duration: ms}, mpisim.Isend{To: 1, Bytes: 64}, mpisim.Waitall{}},
			{mpisim.Compute{Duration: ms}, mpisim.Waitall{}},
		}, "rank 0's messages with rank 1 are unpaired"},
		{"periodic tags shifted", base, []mpisim.Program{
			{mpisim.Compute{Duration: ms}, mpisim.Isend{To: 1, Bytes: 64, Tag: 0}, mpisim.Waitall{},
				mpisim.Compute{Duration: ms}, mpisim.Isend{To: 1, Bytes: 64, Tag: 1}, mpisim.Waitall{Step: 1}},
			{mpisim.Compute{Duration: ms}, mpisim.Irecv{From: 0, Bytes: 64, Tag: 1}, mpisim.Waitall{},
				mpisim.Compute{Duration: ms}, mpisim.Irecv{From: 0, Bytes: 64, Tag: 2}, mpisim.Waitall{Step: 1}},
		}, "ranks 0 and 1: Isends and Irecvs do not pair by tag and epoch"},
		{"pair across epochs", base, []mpisim.Program{
			{mpisim.Compute{Duration: ms}, mpisim.Waitall{}, mpisim.Compute{Duration: ms}, mpisim.Isend{To: 1, Bytes: 64, Tag: 5}, mpisim.Waitall{Step: 1}},
			{mpisim.Compute{Duration: ms}, mpisim.Irecv{From: 0, Bytes: 64, Tag: 5}, mpisim.Waitall{}, mpisim.Compute{Duration: ms}, mpisim.Waitall{Step: 1}},
		}, "ranks 0 and 1: Isends and Irecvs do not pair by tag and epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := mpisim.PlanShards(tc.cfg, tc.progs)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Lockstep || !strings.Contains(dec.EngineReason, tc.reason) {
				t.Fatalf("Lockstep %v, EngineReason %q; want the engine because %q", dec.Lockstep, dec.EngineReason, tc.reason)
			}
			got, gotErr := mpisim.Run(tc.cfg, tc.progs)
			want, wantErr := mpisim.RunEngine(tc.cfg, tc.progs)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Run error %v, engine %v", gotErr, wantErr)
			}
			if gotErr == nil {
				if d := diffResults(got, want); d != "" {
					t.Fatalf("Run diverges from the engine: %s", d)
				}
			}
		})
	}
}

// pairMsgRef is one message as referencePairs keys it.
type pairMsgRef struct{ from, to, tag, epoch int }

// referenceLockstep is the lockstep rule for programs already in the
// epoch shape, written plainly: on every rank each epoch's tags exceed
// all earlier epochs' tags, and for every ordered pair of ranks the
// Isends and the Irecvs, as (tag, epoch) sets with multiplicity, agree.
func referenceLockstep(progs []mpisim.Program) bool {
	var sent, recvd []pairMsgRef
	for i, p := range progs {
		epoch, tagged, prevMax, curMax, cur := 0, false, 0, 0, false
		note := func(tag int) bool {
			if tagged && tag <= prevMax {
				return false
			}
			if !cur || tag > curMax {
				cur, curMax = true, tag
			}
			return true
		}
		for _, op := range p {
			switch op := op.(type) {
			case mpisim.Isend:
				if !note(op.Tag) {
					return false
				}
				sent = append(sent, pairMsgRef{i, op.To, op.Tag, epoch})
			case mpisim.Irecv:
				if !note(op.Tag) {
					return false
				}
				recvd = append(recvd, pairMsgRef{op.From, i, op.Tag, epoch})
			case mpisim.Waitall:
				if cur {
					prevMax, tagged, cur = curMax, true, false
				}
				epoch++
			}
		}
	}
	order := func(a, b pairMsgRef) int {
		for _, d := range [4]int{a.from - b.from, a.to - b.to, a.tag - b.tag, a.epoch - b.epoch} {
			if d != 0 {
				return d
			}
		}
		return 0
	}
	slices.SortFunc(sent, order)
	slices.SortFunc(recvd, order)
	return slices.Equal(sent, recvd)
}

// randomPairedPrograms builds lockstep-shaped programs for a few ranks
// whose epochs mostly repeat one message pattern under a tag shift,
// which may change part way, with some epochs silent, some pairs
// exchanging two messages an epoch, and messages shuffled within their
// phase. Then, half the time, it perturbs one message: a changed tag,
// peer or epoch, a dropped or a duplicated op.
func randomPairedPrograms(r *rand.Rand) []mpisim.Program {
	n, epochs := 2+r.Intn(4), 1+r.Intn(9)
	type msg struct{ from, to, off int }
	var pattern []msg
	for k := r.Intn(2 * n); k >= 0; k-- {
		from := r.Intn(n)
		to := (from + 1 + r.Intn(n-1)) % n
		pattern = append(pattern, msg{from, to, r.Intn(3)})
	}
	stride := 3 + r.Intn(2)
	sends := make([][][]mpisim.Op, n) // rank, epoch
	recvs := make([][][]mpisim.Op, n)
	for i := range sends {
		sends[i], recvs[i] = make([][]mpisim.Op, epochs), make([][]mpisim.Op, epochs)
	}
	change := r.Intn(epochs + 1)
	base := 0
	for e := 0; e < epochs; e++ {
		if e == change {
			stride += 1 + r.Intn(3)
		}
		if r.Intn(6) == 0 {
			continue // a silent epoch
		}
		for _, m := range pattern {
			tag := base + m.off
			sends[m.from][e] = append(sends[m.from][e], mpisim.Isend{To: m.to, Bytes: 64, Tag: tag})
			recvs[m.to][e] = append(recvs[m.to][e], mpisim.Irecv{From: m.from, Bytes: 64, Tag: tag})
		}
		base += stride
	}
	if r.Intn(2) == 0 {
		perturb(r, n, epochs, sends, recvs)
	}
	progs := make([]mpisim.Program, n)
	for i := range progs {
		for e := 0; e < epochs; e++ {
			if r.Intn(3) == 0 {
				r.Shuffle(len(sends[i][e]), func(a, b int) { sends[i][e][a], sends[i][e][b] = sends[i][e][b], sends[i][e][a] })
				r.Shuffle(len(recvs[i][e]), func(a, b int) { recvs[i][e][a], recvs[i][e][b] = recvs[i][e][b], recvs[i][e][a] })
			}
			progs[i] = append(progs[i], mpisim.Compute{Duration: sim.Micro(10), Step: e})
			progs[i] = append(progs[i], sends[i][e]...)
			progs[i] = append(progs[i], recvs[i][e]...)
			progs[i] = append(progs[i], mpisim.Waitall{Step: e})
		}
	}
	return progs
}

// perturb changes one randomly chosen message op in place.
func perturb(r *rand.Rand, n, epochs int, sends, recvs [][][]mpisim.Op) {
	ops := sends
	if r.Intn(2) == 0 {
		ops = recvs
	}
	i, e := r.Intn(n), r.Intn(epochs)
	if len(ops[i][e]) == 0 {
		return
	}
	k := r.Intn(len(ops[i][e]))
	op := ops[i][e][k]
	retag := func(op mpisim.Op, d int) mpisim.Op {
		switch o := op.(type) {
		case mpisim.Isend:
			o.Tag += d
			return o
		case mpisim.Irecv:
			o.Tag += d
			return o
		}
		return op
	}
	switch r.Intn(5) {
	case 0: // a changed tag
		ops[i][e][k] = retag(op, []int{-1, 1, 2}[r.Intn(3)])
	case 1: // a changed peer
		peer := r.Intn(n)
		if peer == i {
			return
		}
		switch o := op.(type) {
		case mpisim.Isend:
			o.To = peer
			ops[i][e][k] = o
		case mpisim.Irecv:
			o.From = peer
			ops[i][e][k] = o
		}
	case 2: // moved to the next epoch
		if e+1 < epochs {
			ops[i][e] = slices.Delete(ops[i][e], k, k+1)
			ops[i][e+1] = append(ops[i][e+1], op)
		}
	case 3: // dropped
		ops[i][e] = slices.Delete(ops[i][e], k, k+1)
	case 4: // duplicated
		ops[i][e] = append(ops[i][e], op)
	}
}

// TestLockstepPairingMatchesReference checks validate's pairing check,
// which folds repeated epochs into pattern runs and compares traffic in a
// compressed canonical form, against referenceLockstep on randomized
// programs, half of them perturbed. A run the check accepts must also
// give the engine's result.
func TestLockstepPairingMatchesReference(t *testing.T) {
	cases := 4000
	if testing.Short() {
		cases = 500
	}
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	accepted := 0
	for i := 0; i < cases; i++ {
		progs := randomPairedPrograms(r)
		cfg := mpisim.Config{Ranks: len(progs), Net: net}
		dec, err := mpisim.PlanShards(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceLockstep(progs); dec.Lockstep != want {
			t.Fatalf("case %d: Lockstep %v (%q), reference %v; programs %v", i, dec.Lockstep, dec.EngineReason, want, progs)
		}
		if !dec.Lockstep {
			continue
		}
		accepted++
		got, err := mpisim.Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mpisim.RunEngine(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("case %d: solver diverges from the engine: %s", i, d)
		}
	}
	if accepted < cases/3 || accepted > cases*9/10 {
		t.Errorf("%d of %d cases accepted; the generator no longer mixes both outcomes", accepted, cases)
	}
}

// maxLockstepAllocsPerRank bounds what one solver Run allocates per rank
// of a large bulk-synchronous chain, far below the engine's 8
// (TestRunAllocsPerRank): the solver's state is a few flat run-scoped
// arrays, so its allocations do not grow with the rank count.
const maxLockstepAllocsPerRank = 0.05

// TestLockstepAllocBudget runs TestRunAllocsPerRank's 2,000-rank chain
// through the solver and gates its allocations per rank.
func TestLockstepAllocBudget(t *testing.T) {
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
	if dec, err := mpisim.PlanShards(cfg, progs); err != nil || !dec.Lockstep {
		t.Fatalf("chain does not take the solver: %+v, %v", dec, err)
	}
	perRank := testing.AllocsPerRun(5, func() {
		if _, err := mpisim.Run(cfg, progs); err != nil {
			t.Fatal(err)
		}
	}) / ranks
	t.Logf("%.4f allocations per rank", perRank)
	if perRank > maxLockstepAllocsPerRank {
		t.Errorf("Run allocates %.4f objects per rank, budget %g", perRank, maxLockstepAllocsPerRank)
	}
}

// runBytes returns the bytes one Run of the programs allocates, the
// median of five runs after a warm-up.
func runBytes(t *testing.T, cfg mpisim.Config, progs []mpisim.Program) float64 {
	t.Helper()
	var got []float64
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		runtime.ReadMemStats(&before)
		if _, err := mpisim.Run(cfg, progs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 {
			got = append(got, float64(after.TotalAlloc-before.TotalAlloc))
		}
	}
	slices.Sort(got)
	return got[len(got)/2]
}

// Bytes a solver Run allocates, schedule included: per rank of a
// bulk-synchronous chain, whose ranks all share one run and one Isend
// list, and per rank-step of a GenWorkload, whose durations take a
// column of 8 bytes per rank-step and whose delays sit in the side list.
// Measured 108 and 25.3. A schedule whose ranks stopped sharing runs
// would take about 148 and 28.6, one whose column slab doubled past its
// rows about 33 per rank-step.
const (
	maxLockstepBytesPerRank     = 128
	maxLockstepBytesPerRankStep = 28
)

// TestLockstepScheduleBytes gates what Run allocates, the lockstep
// schedule included, on a 2,000-rank chain and a 2,000-rank GenWorkload
// of 12 steps each.
func TestLockstepScheduleBytes(t *testing.T) {
	const ranks, steps = 2000, 12
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpisim.Config{Ranks: ranks, Net: net, Trace: mpisim.TraceOff}
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := workload.BulkSync{Topo: chain, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}}}.Programs()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := genload.GenWorkload{Ranks: ranks, Steps: steps, Phase: genload.Gamma{Shape: 2, Scale: sim.Milli(3) / 2},
		Bytes: 8192, Delay: genload.Exp{MeanTime: sim.Micro(500)}, Every: genload.Exp{MeanTime: sim.Milli(20)}, Seed: 1}.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, progs := range [][]mpisim.Program{bulk, gen} {
		if dec, err := mpisim.PlanShards(cfg, progs); err != nil || !dec.Lockstep {
			t.Fatalf("workload does not take the solver: %+v, %v", dec, err)
		}
	}
	perRank := runBytes(t, cfg, bulk) / ranks
	perRankStep := runBytes(t, cfg, gen) / (ranks * steps)
	t.Logf("chain: %.1f B per rank; GenWorkload: %.1f B per rank-step", perRank, perRankStep)
	if perRank > maxLockstepBytesPerRank {
		t.Errorf("Run of the chain allocates %.1f B per rank, budget %d", perRank, maxLockstepBytesPerRank)
	}
	if perRankStep > maxLockstepBytesPerRankStep {
		t.Errorf("Run of the GenWorkload allocates %.1f B per rank-step, budget %d", perRankStep, maxLockstepBytesPerRankStep)
	}
}

// BenchmarkRunLockstepChain times solver Runs of a 12-step
// bulk-synchronous open chain with one delay, trace off and a streaming
// front tracker on OnWait, and reports the cost per rank-step: at 10^5
// ranks a rank's state no longer fits in cache, at 2,000 it does.
func BenchmarkRunLockstepChain(b *testing.B) {
	for _, ranks := range []int{2_000, 100_000} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			const steps = 12
			chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
			if err != nil {
				b.Fatal(err)
			}
			wl := workload.BulkSync{Topo: chain, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
				Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}}}
			progs, err := wl.Programs()
			if err != nil {
				b.Fatal(err)
			}
			net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tracker := wave.NewFrontTracker(chain, ranks/2, wl.Texec/2)
				cfg := mpisim.Config{Ranks: ranks, Net: net, Trace: mpisim.TraceOff, OnWait: tracker.Observe}
				if _, err := mpisim.Run(cfg, progs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks*steps), "ns/rank-step")
		})
	}
}
