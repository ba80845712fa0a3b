package mpisim

// Equivalence property tests for the sparse rank-state structures. The
// production simulator keeps eager-flow counts in swap-delete peer
// lists and each rank's matching state in one flat, arrival-ordered
// list; the dense references here — a full ranks x ranks count matrix
// and a map of per-channel queues — are the obvious implementations
// those structures replaced. Randomized operation streams must be
// indistinguishable between the two, and randomized small scenarios
// must produce byte-identical results under every trace mode.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
)

// TestEagerTrackerMatchesDenseReference drives the sparse eager tracker
// and a dense count matrix with the same randomized inc/dec stream and
// checks they agree on every count, plus the sparse invariants the
// production code relies on: no zero-count peers linger (a drained pair
// is swap-deleted) and no receiver appears twice in a sender's row.
func TestEagerTrackerMatchesDenseReference(t *testing.T) {
	const ranks = 48
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var tr eagerTracker
			tr.init(ranks)
			dense := make([][]int, ranks)
			for i := range dense {
				dense[i] = make([]int, ranks)
			}
			type pair struct{ from, to int }
			var live []pair // pairs with non-zero count, for dec picks
			for op := 0; op < 20000; op++ {
				if len(live) == 0 || r.Intn(2) == 0 {
					p := pair{r.Intn(ranks), r.Intn(ranks)}
					if dense[p.from][p.to] == 0 {
						live = append(live, p)
					}
					dense[p.from][p.to]++
					tr.inc(p.from, p.to)
				} else {
					i := r.Intn(len(live))
					p := live[i]
					dense[p.from][p.to]--
					tr.dec(p.from, p.to)
					if dense[p.from][p.to] == 0 {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				if op%500 == 0 {
					compareEagerTracker(t, &tr, dense)
				}
			}
			compareEagerTracker(t, &tr, dense)
			// Drain everything: every row must give its storage back.
			for _, p := range live {
				for dense[p.from][p.to] > 0 {
					dense[p.from][p.to]--
					tr.dec(p.from, p.to)
				}
			}
			for i := range tr.rows {
				if n := len(tr.rows[i].peers); n != 0 {
					t.Fatalf("drained tracker still holds %d peers in row %d", n, i)
				}
			}
		})
	}
}

func compareEagerTracker(t *testing.T, tr *eagerTracker, dense [][]int) {
	t.Helper()
	for from := range dense {
		seen := make(map[int32]bool)
		for _, p := range tr.rows[from].peers {
			if p.count <= 0 {
				t.Fatalf("row %d keeps peer %d at count %d (zero-count peers must be swap-deleted)", from, p.to, p.count)
			}
			if seen[p.to] {
				t.Fatalf("row %d lists peer %d twice", from, p.to)
			}
			seen[p.to] = true
		}
		for to, want := range dense[from] {
			if got := tr.count(from, to); got != want {
				t.Fatalf("count(%d,%d) = %d, dense reference says %d", from, to, got, want)
			}
		}
	}
}

// denseChan is the dense matcher reference for one (source, tag)
// channel: a plain FIFO of record ids per kind, the per-channel queues
// the flat match list replaced.
type denseChan struct {
	recvs, eagers, rts []int
}

// matchKey names one (source, tag) channel of the matcher oracle.
type matchKey struct{ peer, tag int }

// recID is the oracle's identity of a record: posted receives and
// handshakes carry it in their request's size, eager data in the
// record's own size.
func recID(rec matchRec) int {
	if rec.req != nil {
		return rec.req.bytes
	}
	return rec.bytes
}

// TestMatcherMatchesDenseReference drives a flat match list and a dense
// per-channel reference with the same randomized interleaving of posted
// receives, eager arrivals and rendezvous handshakes across several
// channels, under the production matching rules: a receive takes eager
// data first, then a handshake, else waits; an arrival takes a posted
// receive, else waits. Every match must pair the records the reference
// pairs, which pins per-channel FIFO and the eager-over-handshake
// preference, and the list must hold exactly the reference's waiting
// records, in arrival order.
func TestMatcherMatchesDenseReference(t *testing.T) {
	for _, seed := range []int64{4, 5, 6} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var l matchList
			dense := make(map[matchKey]*denseChan)
			keys := []matchKey{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 5}, {3, 7}, {5, 2}}
			for _, k := range keys {
				dense[k] = &denseChan{}
			}
			pop := func(q *[]int) int { v := (*q)[0]; *q = (*q)[1:]; return v }
			for id := 1; id <= 30000; id++ {
				k := keys[r.Intn(len(keys))]
				ref := dense[k]
				rec := matchRec{tag: k.tag, peer: int32(k.peer)}
				var got, want int
				switch r.Intn(3) {
				case 0: // post a receive
					rec.req, rec.kind = &request{bytes: id}, recPosted
					if x, ok := l.take(recEager, k.peer, k.tag); ok {
						got = recID(x)
					} else if x, ok := l.take(recRTS, k.peer, k.tag); ok {
						got = recID(x)
					} else {
						l = append(l, rec)
					}
					switch {
					case len(ref.eagers) > 0:
						want = pop(&ref.eagers)
					case len(ref.rts) > 0:
						want = pop(&ref.rts)
					default:
						ref.recvs = append(ref.recvs, id)
					}
				default: // eager data or a rendezvous handshake arrives
					q := &ref.eagers
					if rec.kind = recEager; r.Intn(2) == 0 {
						rec.kind, rec.req, q = recRTS, &request{bytes: id}, &ref.rts
					} else {
						rec.bytes = id
					}
					if x, ok := l.take(recPosted, k.peer, k.tag); ok {
						got = recID(x)
					} else {
						l = append(l, rec)
					}
					if len(ref.recvs) > 0 {
						want = pop(&ref.recvs)
					} else {
						*q = append(*q, id)
					}
				}
				if got != want {
					t.Fatalf("record %d on %v matched %d, reference matched %d", id, k, got, want)
				}
				if id%100 == 0 {
					compareMatcher(t, l, dense)
				}
			}
			compareMatcher(t, l, dense)
		})
	}
}

// compareMatcher checks the flat list against the reference: records in
// strictly increasing arrival order, exactly the reference's queues per
// channel and kind, and never a posted receive beside waiting data on
// one channel.
func compareMatcher(t *testing.T, l matchList, dense map[matchKey]*denseChan) {
	t.Helper()
	got := make(map[matchKey]*denseChan)
	last := 0
	for _, rec := range l {
		id := recID(rec)
		if id <= last {
			t.Fatalf("match list out of arrival order: record %d after %d", id, last)
		}
		last = id
		k := matchKey{int(rec.peer), rec.tag}
		c := got[k]
		if c == nil {
			c = &denseChan{}
			got[k] = c
		}
		switch rec.kind {
		case recPosted:
			c.recvs = append(c.recvs, id)
		case recEager:
			c.eagers = append(c.eagers, id)
		default:
			c.rts = append(c.rts, id)
		}
	}
	for k, ref := range dense {
		c := got[k]
		if c == nil {
			c = &denseChan{}
		}
		if !slices.Equal(c.recvs, ref.recvs) || !slices.Equal(c.eagers, ref.eagers) || !slices.Equal(c.rts, ref.rts) {
			t.Fatalf("channel %v diverges: list holds %v/%v/%v, reference %v/%v/%v (recvs/eagers/rts)",
				k, c.recvs, c.eagers, c.rts, ref.recvs, ref.eagers, ref.rts)
		}
		if len(c.recvs) > 0 && len(c.eagers)+len(c.rts) > 0 {
			t.Fatalf("channel %v holds posted receives beside waiting data", k)
		}
	}
}

func samePtrs[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equivTopology is the neighbor interface the scenario generator needs;
// Chain and Grid both satisfy it.
type equivTopology interface {
	topology.Topology
	SendTargets(int) []int
	RecvSources(int) []int
}

// equivPrograms builds the bulk-synchronous program the workload layer
// would emit for the topology: per step an optional injected delay, a
// compute phase, sends and receives to every neighbor, and a waitall.
func equivPrograms(topo equivTopology, steps int, texec sim.Time, bytes int, injRank, injStep int, injDur sim.Time, memBytes float64) []Program {
	n := topo.Ranks()
	progs := make([]Program, n)
	for i := 0; i < n; i++ {
		var p Program
		for s := 0; s < steps; s++ {
			if i == injRank && s == injStep {
				p = append(p, Delay{Duration: injDur, Step: s})
			}
			p = append(p, Compute{Duration: texec, MemBytes: memBytes, Step: s})
			for _, to := range topo.SendTargets(i) {
				p = append(p, Isend{To: to, Bytes: bytes, Tag: s})
			}
			for _, from := range topo.RecvSources(i) {
				p = append(p, Irecv{From: from, Bytes: bytes, Tag: s})
			}
			p = append(p, Waitall{Step: s})
		}
		progs[i] = p
	}
	return progs
}

// equivNoise is a deterministic noise function that is pure in
// (rank, step), with enough variation to perturb every rank
// differently.
func equivNoise(texec sim.Time) NoiseFunc {
	return func(rank, step int) sim.Time {
		h := uint64(rank+1)*0x9e3779b97f4a7c15 ^ uint64(step+1)*0xbf58476d1ce4e5b9
		h ^= h >> 31
		return texec * sim.Time(h%97) / 1000
	}
}

// TestTraceModesAgreeOnRandomScenarios is the scenario-level equivalence
// property: randomized small scenarios (ranks <= 64; random topology,
// protocol, noise, memory-boundedness, progress mode) must finish at
// exactly the same time with exactly the same event count under
// TraceFull, TraceSteps and TraceOff, the streaming front tracker fed
// by OnWait must reproduce the dense TrackFront extraction from the
// recorded trace byte for byte, and TraceSteps must keep exactly the
// step timeline TraceFull records.
func TestTraceModesAgreeOnRandomScenarios(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	texec := sim.Milli(3)
	for i := 0; i < 14; i++ {
		var topo equivTopology
		var label string
		switch r.Intn(4) {
		case 0: // open bidirectional chain
			n := 2 + r.Intn(63)
			c, err := topology.NewChain(n, 1, topology.Bidirectional, topology.Open)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = c, fmt.Sprintf("chain%d", n)
		case 1: // periodic ring, sometimes unidirectional, sometimes d=2
			n := 5 + r.Intn(60)
			d := 1 + r.Intn(2)
			dir := topology.Bidirectional
			if r.Intn(2) == 0 {
				dir = topology.Unidirectional
			}
			c, err := topology.NewChain(n, d, dir, topology.Periodic)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = c, fmt.Sprintf("ring%d_d%d_%s", n, d, dir)
		case 2: // 2-D torus (periodic extents must exceed 2d)
			a, b := 3+r.Intn(6), 3+r.Intn(5)
			g, err := topology.Torus2D(a, b)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = g, fmt.Sprintf("torus%dx%d", a, b)
		default: // open grid
			a, b := 2+r.Intn(6), 2+r.Intn(6)
			g, err := topology.NewGrid([]int{a, b}, 1, topology.Bidirectional, topology.Open)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = g, fmt.Sprintf("grid%dx%d", a, b)
		}
		ranks := topo.Ranks()
		steps := 3 + r.Intn(4)
		bytes := 8192
		if r.Intn(3) == 0 {
			bytes = 200_000 // above the eager limit: rendezvous
			label += "_rndv"
		}
		injRank := r.Intn(ranks)
		injStep := r.Intn(2)
		cfg := Config{Ranks: ranks, Net: net}
		if r.Intn(2) == 0 {
			cfg.Noise = equivNoise(texec)
			label += "_noise"
		}
		if r.Intn(2) == 0 {
			cfg.Progress = IndependentRendezvous
		}
		memBytes := 0.0
		if r.Intn(4) == 0 {
			memBytes = 5e6
			cfg.SocketOf = func(rank int) int { return rank / 4 }
			cfg.SocketBandwidth = 40e9
			cfg.CoreBandwidth = 8e9
			label += "_mem"
		}
		progs := equivPrograms(topo, steps, texec, bytes, injRank, injStep, 5*texec, memBytes)

		t.Run(label, func(t *testing.T) {
			full := cfg
			full.Trace = TraceFull
			resFull, err := RunEngine(full, progs)
			if err != nil {
				t.Fatal(err)
			}

			tracker := wave.NewFrontTracker(topo, injRank, texec/2)
			off := cfg
			off.Trace = TraceOff
			off.OnWait = tracker.Observe
			resOff, err := RunEngine(off, progs)
			if err != nil {
				t.Fatal(err)
			}

			stepsOnly := cfg
			stepsOnly.Trace = TraceSteps
			resSteps, err := RunEngine(stepsOnly, progs)
			if err != nil {
				t.Fatal(err)
			}

			if resOff.End != resFull.End || resSteps.End != resFull.End {
				t.Errorf("end times diverge: full %v, steps %v, off %v", resFull.End, resSteps.End, resOff.End)
			}
			if resOff.Events != resFull.Events || resSteps.Events != resFull.Events {
				t.Errorf("event counts diverge: full %d, steps %d, off %d", resFull.Events, resSteps.Events, resOff.Events)
			}
			for _, rt := range resOff.Traces.Ranks {
				if len(rt.Segments) != 0 || len(rt.StepEnd) != 0 {
					t.Fatalf("TraceOff recorded rank %d: %d segments, %d step ends", rt.Rank, len(rt.Segments), len(rt.StepEnd))
				}
			}
			if len(resSteps.Traces.Ranks) != len(resFull.Traces.Ranks) {
				t.Fatalf("TraceSteps has %d rank traces, TraceFull %d", len(resSteps.Traces.Ranks), len(resFull.Traces.Ranks))
			}
			for i, rt := range resSteps.Traces.Ranks {
				if len(rt.Segments) != 0 {
					t.Fatalf("TraceSteps recorded %d segments for rank %d", len(rt.Segments), rt.Rank)
				}
				want := resFull.Traces.Ranks[i].StepEnd
				if !samePtrs(rt.StepEnd, want) {
					t.Fatalf("rank %d step timeline diverges between TraceSteps and TraceFull", rt.Rank)
				}
			}

			dense := wave.TrackFront(resFull.Traces, topo, injRank, texec/2)
			stream := tracker.Front()
			dj, err := json.Marshal(dense)
			if err != nil {
				t.Fatal(err)
			}
			sj, err := json.Marshal(stream)
			if err != nil {
				t.Fatal(err)
			}
			if string(dj) != string(sj) {
				t.Errorf("fronts diverge:\ndense:  %s\nstream: %s", dj, sj)
			}
		})
	}
}

// streamNoise mimics the noise package's per-rank substreams: each
// rank's stream derives lazily from the root seed and advances once per
// call with the step argument ignored, so the run's output depends on
// the order in which the simulator draws noise. Each returned NoiseFunc
// owns fresh state.
func streamNoise(seed uint64, texec sim.Time) NoiseFunc {
	states := make(map[int]*uint64)
	return func(rank, _ int) sim.Time {
		st, ok := states[rank]
		if !ok {
			v := seed ^ (uint64(rank)+1)*0x9e3779b97f4a7c15
			st = &v
			states[rank] = st
		}
		*st ^= *st << 13
		*st ^= *st >> 7
		*st ^= *st << 17
		return texec * sim.Time(*st%89) / 1000
	}
}

// TestSnapshotDeterministic requires a run to be a pure function of its
// config and programs across the eager, rendezvous, torus and
// memory-bound regimes: two runs from freshly built configs — stateful
// stream noise included — must agree on end time, event count and the
// full recorded trace byte for byte. (The name dates from the
// checkpoint API; this is the property a checkpoint relied on.)
func TestSnapshotDeterministic(t *testing.T) {
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	texec := sim.Milli(3)
	mustChain := func(n int, b topology.Boundary) equivTopology {
		c, err := topology.NewChain(n, 1, topology.Bidirectional, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	torus, err := topology.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		makeCfg func() Config
		progs   []Program
	}{
		{
			name: "chain_eager_streamnoise",
			makeCfg: func() Config {
				return Config{Ranks: 24, Net: net, Noise: streamNoise(42, texec)}
			},
			progs: equivPrograms(mustChain(24, topology.Open), 5, texec, 8192, 12, 1, 5*texec, 0),
		},
		{
			name: "ring_rendezvous",
			makeCfg: func() Config {
				return Config{Ranks: 16, Net: net, Progress: IndependentRendezvous}
			},
			progs: equivPrograms(mustChain(16, topology.Periodic), 5, texec, 200_000, 3, 1, 5*texec, 0),
		},
		{
			name: "torus_purenoise",
			makeCfg: func() Config {
				return Config{Ranks: 16, Net: net, Noise: equivNoise(texec)}
			},
			progs: equivPrograms(torus, 5, texec, 8192, 5, 1, 5*texec, 0),
		},
		{
			name: "chain_membound",
			makeCfg: func() Config {
				return Config{
					Ranks: 16, Net: net,
					SocketOf:        func(rank int) int { return rank / 4 },
					SocketBandwidth: 40e9,
					CoreBandwidth:   8e9,
				}
			},
			progs: equivPrograms(mustChain(16, topology.Open), 5, texec, 8192, 8, 1, 5*texec, 5e6),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ends [2]sim.Time
			var events [2]uint64
			var traces [2][]byte
			for i := range traces {
				res, err := Run(c.makeCfg(), c.progs)
				if err != nil {
					t.Fatal(err)
				}
				if traces[i], err = json.Marshal(res.Traces); err != nil {
					t.Fatal(err)
				}
				ends[i], events[i] = res.End, res.Events
			}
			if ends[0] != ends[1] || events[0] != events[1] {
				t.Errorf("runs disagree: end %v vs %v, %d vs %d events", ends[0], ends[1], events[0], events[1])
			}
			if string(traces[0]) != string(traces[1]) {
				t.Errorf("identical runs recorded different traces (%d vs %d bytes)", len(traces[0]), len(traces[1]))
			}
		})
	}
}
