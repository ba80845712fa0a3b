package mpisim

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Standard test parameters, mirroring the paper's setup in miniature:
// compute-bound phases of 1 ms, small (eager) messages of 8 KiB, large
// (rendezvous) messages above the 128 KiB eager limit.
const (
	texec      = sim.Time(1e-3)
	smallMsg   = 8192
	largeMsg   = 1 << 17 // 131072 B, just above the eager limit
	eagerLimit = 1<<17 - 1
)

func testNet(t *testing.T) netmodel.Model {
	t.Helper()
	m, err := netmodel.NewHockney(sim.Micro(2), 3e9, eagerLimit)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ringSpec builds the paper's bulk-synchronous benchmark programs: per
// step, an optional injected delay, a compute phase, non-blocking sends
// and receives to the neighbor shell, then Waitall.
type ringSpec struct {
	chain  topology.Chain
	steps  int
	bytes  int
	delays map[int]map[int]sim.Time // rank -> step -> injected delay
}

func (rs ringSpec) programs(t *testing.T) []Program {
	t.Helper()
	progs := make([]Program, rs.chain.N)
	for i := 0; i < rs.chain.N; i++ {
		var p Program
		for step := 0; step < rs.steps; step++ {
			if d, ok := rs.delays[i][step]; ok {
				p = append(p, Delay{Duration: d, Step: step})
			}
			p = append(p, Compute{Duration: texec, Step: step})
			for _, to := range rs.chain.SendTargets(i) {
				p = append(p, Isend{To: to, Bytes: rs.bytes, Tag: step})
			}
			for _, from := range rs.chain.RecvSources(i) {
				p = append(p, Irecv{From: from, Bytes: rs.bytes, Tag: step})
			}
			p = append(p, Waitall{Step: step})
		}
		progs[i] = p
	}
	return progs
}

func runRing(t *testing.T, rs ringSpec, msgBytes int, mode ProgressMode) *Result {
	t.Helper()
	rs.bytes = msgBytes
	res, err := Run(Config{Ranks: rs.chain.N, Net: testNet(t), Progress: mode}, rs.programs(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func chain(t *testing.T, n, d int, dir topology.Direction, b topology.Boundary) topology.Chain {
	t.Helper()
	c, err := topology.NewChain(n, d, dir, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// firstWaveStep returns, per rank, the first step whose wait time exceeds
// the threshold, or -1 if none does.
func firstWaveStep(res *Result, threshold sim.Time) []int {
	w := res.Traces.WaitMatrix()
	out := make([]int, len(w))
	for r := range w {
		out[r] = -1
		for s := range w[r] {
			if w[r][s] > threshold {
				out[r] = s
				break
			}
		}
	}
	return out
}

func TestSilentRunStaysSynchronous(t *testing.T) {
	rs := ringSpec{chain: chain(t, 8, 1, topology.Unidirectional, topology.Periodic), steps: 10}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	// Without injected delays, no rank should ever wait longer than a few
	// communication times.
	w := res.Traces.WaitMatrix()
	for r := range w {
		for s := range w[r] {
			if w[r][s] > sim.Micro(100) {
				t.Errorf("silent run: rank %d step %d waited %v", r, s, w[r][s])
			}
		}
	}
	// Total runtime should be close to steps * (texec + tcomm).
	if res.End > sim.Time(10)*(texec+sim.Micro(100)) {
		t.Errorf("silent runtime %v far above ideal %v", res.End, sim.Time(10)*texec)
	}
}

func TestFig4EagerUnidirectionalWave(t *testing.T) {
	// Delay of 4.5 execution phases at rank 5, step 1. Eager protocol:
	// ranks below 5 must be completely unaffected; the wave moves one
	// rank per step above.
	n := 12
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Unidirectional, topology.Open),
		steps:  10,
		delays: map[int]map[int]sim.Time{5: {1: 4.5 * texec}},
	}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	front := firstWaveStep(res, texec/2)
	for r := 0; r <= 5; r++ {
		if front[r] != -1 {
			t.Errorf("rank %d (upstream of delay) waited at step %d; eager sends should be fire-and-forget", r, front[r])
		}
	}
	for r := 6; r < n; r++ {
		want := 1 + (r - 6)
		if front[r] != want {
			t.Errorf("rank %d first idle at step %d, want %d (speed 1 rank/step)", r, front[r], want)
		}
	}
}

func TestEagerBidirectionalWaveBothDirections(t *testing.T) {
	n := 13
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Bidirectional, topology.Open),
		steps:  10,
		delays: map[int]map[int]sim.Time{6: {1: 4 * texec}},
	}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	front := firstWaveStep(res, texec/2)
	for off := 1; off <= 5; off++ {
		want := off // injected at step 1; neighbor off=1 idles at step 1
		if front[6+off] != want {
			t.Errorf("rank %d first idle at %d, want %d", 6+off, front[6+off], want)
		}
		if front[6-off] != want {
			t.Errorf("rank %d first idle at %d, want %d", 6-off, front[6-off], want)
		}
	}
}

func TestRendezvousUnidirectionalPropagatesBackward(t *testing.T) {
	// Fig. 5(e): with rendezvous protocol even unidirectional
	// communication propagates the wave in both directions at speed 1.
	n := 13
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Unidirectional, topology.Open),
		steps:  10,
		delays: map[int]map[int]sim.Time{6: {1: 4 * texec}},
	}
	res := runRing(t, rs, largeMsg, GatedRendezvous)
	front := firstWaveStep(res, texec/2)
	for off := 1; off <= 5; off++ {
		if front[6+off] != off {
			t.Errorf("downstream rank %d first idle at %d, want %d", 6+off, front[6+off], off)
		}
		if front[6-off] != off {
			t.Errorf("upstream rank %d first idle at %d, want %d", 6-off, front[6-off], off)
		}
	}
}

func TestRendezvousBidirectionalDoublesSpeed(t *testing.T) {
	// Fig. 5(g)/Eq. 2: bidirectional rendezvous, sigma = 2 -> the wave
	// reaches two new ranks per step in each direction.
	n := 17
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Bidirectional, topology.Open),
		steps:  10,
		delays: map[int]map[int]sim.Time{8: {1: 4 * texec}},
	}
	res := runRing(t, rs, largeMsg, GatedRendezvous)
	front := firstWaveStep(res, texec/2)
	for off := 1; off <= 8; off++ {
		want := 1 + (off-1)/2 // offsets 1,2 idle at step 1; 3,4 at step 2...
		if front[8+off] != want {
			t.Errorf("rank %d first idle at %d, want %d (sigma=2)", 8+off, front[8+off], want)
		}
		if front[8-off] != want {
			t.Errorf("rank %d first idle at %d, want %d (sigma=2)", 8-off, front[8-off], want)
		}
	}
}

func TestIndependentProgressRemovesDoubling(t *testing.T) {
	// Ablation: with independent (LogGOPSim-ideal) rendezvous progress,
	// bidirectional rendezvous behaves like sigma = 1.
	n := 13
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Bidirectional, topology.Open),
		steps:  10,
		delays: map[int]map[int]sim.Time{6: {1: 4 * texec}},
	}
	res := runRing(t, rs, largeMsg, IndependentRendezvous)
	front := firstWaveStep(res, texec/2)
	for off := 1; off <= 5; off++ {
		if front[6+off] != off {
			t.Errorf("rank %d first idle at %d, want %d (no doubling)", 6+off, front[6+off], off)
		}
	}
}

func TestDistance2DoublesBaseSpeed(t *testing.T) {
	// Fig. 7(a): d=2 unidirectional rendezvous -> v = 2 ranks/step.
	n := 17
	rs := ringSpec{
		chain:  chain(t, n, 2, topology.Unidirectional, topology.Open),
		steps:  10,
		delays: map[int]map[int]sim.Time{8: {1: 4 * texec}},
	}
	res := runRing(t, rs, largeMsg, GatedRendezvous)
	front := firstWaveStep(res, texec/2)
	for off := 1; off <= 8; off++ {
		want := 1 + (off-1)/2
		if front[8+off] != want {
			t.Errorf("d=2 uni: rank %d first idle at %d, want %d", 8+off, front[8+off], want)
		}
	}
	// Fig. 7(b): d=2 bidirectional rendezvous -> v = 4 ranks/step.
	rs.chain = chain(t, n, 2, topology.Bidirectional, topology.Open)
	res = runRing(t, rs, largeMsg, GatedRendezvous)
	front = firstWaveStep(res, texec/2)
	for off := 1; off <= 8; off++ {
		want := 1 + (off-1)/4
		if front[8+off] != want {
			t.Errorf("d=2 bi: rank %d first idle at %d, want %d", 8+off, front[8+off], want)
		}
	}
}

func TestPeriodicEagerWaveDiesAtOrigin(t *testing.T) {
	// Fig. 5(b): periodic unidirectional eager: the wave wraps around and
	// dies when it hits the rank where the delay was injected. After that
	// no rank should idle again.
	n := 10
	steps := 16
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Unidirectional, topology.Periodic),
		steps:  steps,
		delays: map[int]map[int]sim.Time{5: {1: 3 * texec}},
	}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	w := res.Traces.WaitMatrix()
	// The wave needs n-1 = 9 steps to traverse ranks 6..4; after step
	// 1+9 = 10 everything must be quiet.
	for r := 0; r < n; r++ {
		for s := 12; s < steps; s++ {
			if w[r][s] > texec/2 {
				t.Errorf("rank %d still idle at step %d (%v); wave should have died", r, s, w[r][s])
			}
		}
	}
	// The injecting rank itself never idles (eager messages buffered).
	for s := 0; s < steps; s++ {
		if w[5][s] > texec/2 {
			t.Errorf("injecting rank idle at step %d", s)
		}
	}
}

func TestPeriodicBidirectionalWavesCancel(t *testing.T) {
	// Fig. 5(d): two wavefronts travel around the ring and annihilate
	// where they meet; total idle per rank is bounded by ~one delay.
	n := 12
	steps := 16
	delay := 3 * texec
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Bidirectional, topology.Periodic),
		steps:  steps,
		delays: map[int]map[int]sim.Time{3: {1: delay}},
	}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	w := res.Traces.WaitMatrix()
	for r := 0; r < n; r++ {
		var total sim.Time
		for s := 0; s < steps; s++ {
			total += w[r][s]
		}
		if total > delay+texec {
			t.Errorf("rank %d accumulated %v idle, want <= ~%v (waves must cancel, not add)", r, total, delay)
		}
	}
	// After the waves met (at most n/2+2 steps after injection), silence.
	for r := 0; r < n; r++ {
		for s := 10; s < steps; s++ {
			if w[r][s] > texec/2 {
				t.Errorf("rank %d idle at step %d after cancellation", r, s)
			}
		}
	}
}

func TestExcessRuntimeEqualsDelayOnSilentSystem(t *testing.T) {
	// Fig. 9(a): on a noise-free system the injected delay shows up 1:1
	// as excess runtime.
	n := 8
	steps := 12
	delay := 4 * texec
	base := runRing(t, ringSpec{
		chain: chain(t, n, 1, topology.Bidirectional, topology.Periodic),
		steps: steps,
	}, smallMsg, GatedRendezvous)
	perturbed := runRing(t, ringSpec{
		chain:  chain(t, n, 1, topology.Bidirectional, topology.Periodic),
		steps:  steps,
		delays: map[int]map[int]sim.Time{1: {1: delay}},
	}, smallMsg, GatedRendezvous)
	excess := perturbed.End - base.End
	if math.Abs(float64(excess-delay)) > float64(texec)/4 {
		t.Errorf("excess runtime = %v, want ~%v", excess, delay)
	}
}

func TestEagerBufferLimitForcesRendezvousBehavior(t *testing.T) {
	// Two ranks; rank 1 delays for a long time at the start. Rank 0 sends
	// one small message per step. With unlimited buffers rank 0 runs
	// ahead freely; with a 2-slot buffer it stalls (footnote 1).
	build := func() []Program {
		steps := 8
		p0 := Program{}
		p1 := Program{Delay{Duration: 10 * texec, Step: 0}}
		for s := 0; s < steps; s++ {
			p0 = append(p0, Compute{Duration: texec, Step: s},
				Isend{To: 1, Bytes: smallMsg, Tag: s}, Waitall{Step: s})
			p1 = append(p1, Compute{Duration: texec, Step: s},
				Irecv{From: 0, Bytes: smallMsg, Tag: s}, Waitall{Step: s})
		}
		return []Program{p0, p1}
	}
	unlimited, err := Run(Config{Ranks: 2, Net: testNet(t)}, build())
	if err != nil {
		t.Fatal(err)
	}
	limited, err := Run(Config{Ranks: 2, Net: testNet(t), EagerMaxOutstanding: 2}, build())
	if err != nil {
		t.Fatal(err)
	}
	w0u := unlimited.Traces.Ranks[0].TotalBy(trace.Wait)
	w0l := limited.Traces.Ranks[0].TotalBy(trace.Wait)
	if w0u > sim.Micro(200) {
		t.Errorf("unlimited buffers: sender waited %v, want ~0", w0u)
	}
	if w0l < 5*texec {
		t.Errorf("2-slot buffers: sender waited only %v, want several texec (backpressure)", w0l)
	}
}

func TestMemoryBoundComputeSharesBandwidth(t *testing.T) {
	// Two ranks on one socket, each moving 3 MB through a 1 GB/s socket:
	// lockstep phases take 6 ms instead of the solo 3 ms.
	prog := func() Program {
		return Program{Compute{MemBytes: 3e6, Step: 0}, Waitall{Step: 0}}
	}
	shared, err := Run(Config{
		Ranks: 2, Net: testNet(t),
		SocketOf:        func(int) int { return 0 },
		SocketBandwidth: 1e9,
	}, []Program{prog(), prog()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(shared.End-6e-3)) > 1e-9 {
		t.Errorf("shared-socket end = %v, want 6ms", shared.End)
	}
	separate, err := Run(Config{
		Ranks: 2, Net: testNet(t),
		SocketOf:        func(r int) int { return r },
		SocketBandwidth: 1e9,
	}, []Program{prog(), prog()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(separate.End-3e-3)) > 1e-9 {
		t.Errorf("separate-socket end = %v, want 3ms", separate.End)
	}
}

func TestNoiseInjectionRecorded(t *testing.T) {
	noise := func(rank, step int) sim.Time {
		if rank == 0 && step == 1 {
			return sim.Milli(2)
		}
		return 0
	}
	progs := []Program{
		{Compute{Duration: texec, Step: 0}, Waitall{Step: 0},
			Compute{Duration: texec, Step: 1}, Waitall{Step: 1}},
		{Compute{Duration: texec, Step: 0}, Waitall{Step: 0},
			Compute{Duration: texec, Step: 1}, Waitall{Step: 1}},
	}
	res, err := Run(Config{Ranks: 2, Net: testNet(t), Noise: noise}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Traces.Ranks[0].TotalBy(trace.Noise); got != sim.Milli(2) {
		t.Errorf("rank 0 noise total = %v, want 2ms", got)
	}
	if got := res.Traces.Ranks[1].TotalBy(trace.Noise); got != 0 {
		t.Errorf("rank 1 noise total = %v, want 0", got)
	}
}

func TestNegativeNoiseClamped(t *testing.T) {
	noise := func(rank, step int) sim.Time { return -sim.Milli(1) }
	progs := []Program{{Compute{Duration: texec, Step: 0}, Waitall{Step: 0}}}
	res, err := Run(Config{Ranks: 1, Net: testNet(t), Noise: noise}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.End != texec {
		t.Errorf("end = %v, want %v (negative noise ignored)", res.End, texec)
	}
}

func TestDeadlockDetection(t *testing.T) {
	progs := []Program{
		{Irecv{From: 1, Bytes: 8, Tag: 0}, Waitall{Step: 0}}, // never satisfied
		{Compute{Duration: texec, Step: 0}},
	}
	_, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs)
	if err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestValidationErrors(t *testing.T) {
	net := testNet(t)
	cases := []struct {
		name  string
		cfg   Config
		progs []Program
	}{
		{"zero ranks", Config{Ranks: 0, Net: net}, nil},
		{"nil net", Config{Ranks: 1}, []Program{{}}},
		{"program count", Config{Ranks: 2, Net: net}, []Program{{}}},
		{"send out of range", Config{Ranks: 1, Net: net}, []Program{{Isend{To: 3}}}},
		{"send to self", Config{Ranks: 2, Net: net}, []Program{{Isend{To: 0}}, {}}},
		{"negative bytes", Config{Ranks: 2, Net: net}, []Program{{Isend{To: 1, Bytes: -1}}, {}}},
		{"recv out of range", Config{Ranks: 1, Net: net}, []Program{{Irecv{From: -1}}}},
		{"recv from self", Config{Ranks: 2, Net: net}, []Program{{Irecv{From: 0}}, {}}},
		{"negative recv bytes", Config{Ranks: 2, Net: net}, []Program{{Irecv{From: 1, Bytes: -1}}, {}}},
		{"negative compute", Config{Ranks: 1, Net: net}, []Program{{Compute{Duration: -1}}}},
		{"negative delay", Config{Ranks: 1, Net: net}, []Program{{Delay{Duration: -1}}}},
		{"NaN compute", Config{Ranks: 1, Net: net}, []Program{{Compute{Duration: sim.Time(math.NaN())}}}},
		{"NaN membytes", Config{Ranks: 1, Net: net}, []Program{{Compute{MemBytes: math.NaN()}}}},
		{"NaN delay", Config{Ranks: 1, Net: net}, []Program{{Delay{Duration: sim.Time(math.NaN())}}}},
		{"infinite compute", Config{Ranks: 1, Net: net}, []Program{{Compute{Duration: sim.Time(math.Inf(1))}, Waitall{}}}},
		{"infinite membytes", Config{Ranks: 1, Net: net}, []Program{{Compute{MemBytes: math.Inf(1)}}}},
		{"infinite delay", Config{Ranks: 1, Net: net}, []Program{{Delay{Duration: sim.Time(math.Inf(1))}, Compute{}, Waitall{}}}},
		{"NaN core bandwidth", Config{Ranks: 1, Net: net, CoreBandwidth: math.NaN()}, []Program{{}}},
		{"NaN socket bandwidth", Config{Ranks: 1, Net: net, SocketOf: func(int) int { return 0 }, SocketBandwidth: math.NaN()},
			[]Program{{Compute{MemBytes: 10}}}},
		{"negative eager bound", Config{Ranks: 1, Net: net, EagerMaxOutstanding: -1}, []Program{{}}},
		{"membytes without socket", Config{Ranks: 1, Net: net}, []Program{{Compute{MemBytes: 10}}}},
		{"membytes without bandwidth", Config{Ranks: 1, Net: net, SocketOf: func(int) int { return 0 }},
			[]Program{{Compute{MemBytes: 10}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(c.cfg, c.progs); err == nil {
				t.Errorf("%s: no error", c.name)
			}
		})
	}
}

// loggopsNet is a LogGOPS model with L = o = 1 µs and a per-byte
// overhead of 1 ns/B, so receive overheads depend visibly on size.
func loggopsNet(t *testing.T) netmodel.Model {
	t.Helper()
	net, err := netmodel.NewLogGOPS(sim.Micro(1), sim.Micro(1), sim.Micro(1), 0, 1e-9, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestNegativeIrecvSizeRejected pins that a negative receive size is a
// validation error, with the Isend wording, rather than a negative
// receive overhead that schedules an event in the past. The receive is
// posted 1 ms after its message arrived, where a -10 MB size at 1 ns/B
// would land its completion 9 ms before now.
func TestNegativeIrecvSizeRejected(t *testing.T) {
	progs := []Program{
		{Isend{To: 1, Bytes: 1000}, Waitall{}},
		{Delay{Duration: sim.Milli(1)}, Irecv{From: 0, Bytes: -10_000_000}, Waitall{}},
	}
	_, err := Run(Config{Ranks: 2, Net: loggopsNet(t)}, progs)
	if err == nil || err.Error() != "mpisim: rank 1 op 1 negative message size" {
		t.Fatalf("Run = %v, want the negative message size error", err)
	}
}

// TestEagerRecvOverheadChargesMessageSize pins that an eager receive is
// charged on the message's size whether the data arrives before or
// after the receive is posted. A 1000-byte message goes into a
// 1,000,000-byte receive: sent at 0, it pays 2 µs of send overhead and
// 1 µs on the wire, and the receive overhead is o + 1000 B x 1 ns/B =
// 2 µs after arrival, or after a receive posted at 1 ms.
func TestEagerRecvOverheadChargesMessageSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		late sim.Time
		want sim.Time
	}{
		{"receive posted first", 0, sim.Micro(5)},
		{"receive posted 1ms late", sim.Milli(1), sim.Milli(1) + sim.Micro(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv := Program{Irecv{From: 0, Bytes: 1_000_000}, Waitall{}}
			if tc.late > 0 {
				recv = append(Program{Delay{Duration: tc.late}}, recv...)
			}
			progs := []Program{{Isend{To: 1, Bytes: 1000}, Waitall{}}, recv}
			res, err := Run(Config{Ranks: 2, Net: loggopsNet(t)}, progs)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Traces.Ranks[1].StepEnd[0]; math.Abs(float64(got-tc.want)) > 1e-12 {
				t.Errorf("receiver's Waitall ends at %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMatchListOverflowStaysPrivate runs a sender eight epochs ahead of
// its receiver, so the receiver's match list (sized for two records)
// must grow, while the next rank's list, carved from the same slab
// right behind it, holds two posted receives. Growing must reallocate
// only the overflowing list: every message still matches its own
// receive in FIFO order, and nobody deadlocks.
func TestMatchListOverflowStaysPrivate(t *testing.T) {
	const epochs = 8
	sender := Program{}
	receiver := Program{Compute{Duration: 5 * texec}}
	for s := 0; s < epochs; s++ {
		sender = append(sender, Isend{To: 1, Bytes: 64 * (s + 1), Tag: s})
		receiver = append(receiver, Irecv{From: 0, Bytes: 64 * (s + 1), Tag: s}, Waitall{Step: s})
	}
	sender = append(sender, Waitall{})
	progs := []Program{
		sender,
		receiver,
		{Irecv{From: 3, Bytes: 64, Tag: 0}, Irecv{From: 3, Bytes: 64, Tag: 1}, Waitall{}},
		{Compute{Duration: 10 * texec}, Isend{To: 2, Bytes: 64, Tag: 1}, Isend{To: 2, Bytes: 64, Tag: 0}, Waitall{}},
	}
	res, err := Run(Config{Ranks: 4, Net: testNet(t)}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Traces.Ranks[1].StepEnd); got != epochs {
		t.Fatalf("receiver completed %d epochs, want %d", got, epochs)
	}
	if got := res.Traces.Ranks[2].StepEnd[0]; got < 10*texec {
		t.Errorf("rank 2 finished at %v, before its sender's data left at %v", got, 10*texec)
	}
}

func TestDeterminism(t *testing.T) {
	rs := ringSpec{
		chain:  chain(t, 10, 1, topology.Bidirectional, topology.Periodic),
		steps:  8,
		delays: map[int]map[int]sim.Time{2: {1: 3 * texec}},
	}
	dump := func() []byte {
		res := runRing(t, rs, largeMsg, GatedRendezvous)
		var buf bytes.Buffer
		if err := res.Traces.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different traces")
	}
}

func TestStepEndTimesMonotone(t *testing.T) {
	rs := ringSpec{
		chain:  chain(t, 9, 1, topology.Bidirectional, topology.Open),
		steps:  12,
		delays: map[int]map[int]sim.Time{4: {2: 5 * texec}},
	}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	for _, rt := range res.Traces.Ranks {
		prev := sim.Time(-1)
		for s, at := range rt.StepEnd {
			if at <= prev {
				t.Errorf("rank %d step %d end %v not after previous %v", rt.Rank, s, at, prev)
			}
			prev = at
		}
		if len(rt.StepEnd) != 12 {
			t.Errorf("rank %d recorded %d steps, want 12", rt.Rank, len(rt.StepEnd))
		}
	}
}

func TestWaveSpeedMatchesEq2Quantitatively(t *testing.T) {
	// Eq. 2: v_silent = sigma*d/(Texec+Tcomm). Measure the arrival time of
	// the wave front at each rank and compare slopes.
	n := 15
	rs := ringSpec{
		chain:  chain(t, n, 1, topology.Unidirectional, topology.Open),
		steps:  14,
		delays: map[int]map[int]sim.Time{1: {1: 6 * texec}},
	}
	res := runRing(t, rs, smallMsg, GatedRendezvous)
	// Wave front arrival = start of the big wait at each rank.
	arrival := make([]float64, 0, n)
	ranks := make([]float64, 0, n)
	for _, rt := range res.Traces.Ranks {
		if rt.Rank < 2 {
			continue
		}
		for _, seg := range rt.Segments {
			if seg.Kind == trace.Wait && seg.Duration() > texec {
				arrival = append(arrival, float64(seg.Start))
				ranks = append(ranks, float64(rt.Rank))
				break
			}
		}
	}
	if len(arrival) < 10 {
		t.Fatalf("wave front detected on only %d ranks", len(arrival))
	}
	// Fit rank = v * time + c; v should be ~1/(texec + tcomm) with tcomm
	// here ~2us + 8192/3GB/s ~= 4.7us.
	dt := make([]float64, len(arrival))
	for i := range arrival {
		dt[i] = arrival[i] - arrival[0]
	}
	dr := make([]float64, len(ranks))
	for i := range ranks {
		dr[i] = ranks[i] - ranks[0]
	}
	// slope via least squares through origin
	num, den := 0.0, 0.0
	for i := range dt {
		num += dt[i] * dr[i]
		den += dt[i] * dt[i]
	}
	v := num / den
	tcomm := 2e-6 + 8192/3e9
	want := 1 / (float64(texec) + tcomm)
	if math.Abs(v-want)/want > 0.02 {
		t.Errorf("measured speed %.1f ranks/s, Eq.2 predicts %.1f (%.1f%% off)",
			v, want, 100*math.Abs(v-want)/want)
	}
}

func TestCountOps(t *testing.T) {
	p := Program{
		Compute{Duration: 1, Step: 0},
		Isend{To: 1, Bytes: 8, Tag: 0},
		Irecv{From: 1, Bytes: 8, Tag: 0},
		Waitall{Step: 0},
		Compute{Duration: 1, Step: 1},
	}
	counts := CountOps(p)
	if counts["mpisim.Compute"] != 2 || counts["mpisim.Isend"] != 1 {
		t.Errorf("CountOps = %v", counts)
	}
}

func TestProgressModeString(t *testing.T) {
	if GatedRendezvous.String() != "gated" || IndependentRendezvous.String() != "independent" {
		t.Error("progress mode strings")
	}
	if ProgressMode(7).String() == "" {
		t.Error("unknown mode empty")
	}
}

func TestZeroByteMessages(t *testing.T) {
	// Zero-byte messages (pure synchronization signals) must match and
	// complete like any other eager message.
	progs := []Program{
		{Compute{Duration: texec, Step: 0}, Isend{To: 1, Bytes: 0, Tag: 0}, Waitall{Step: 0}},
		{Compute{Duration: texec, Step: 0}, Irecv{From: 0, Bytes: 0, Tag: 0}, Waitall{Step: 0}},
	}
	res, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces.Steps() != 1 {
		t.Errorf("steps = %d", res.Traces.Steps())
	}
}

func TestFIFOMatchingSameTag(t *testing.T) {
	// Two messages with identical (source, tag) must match the receives
	// in posting order; the run completes without deadlock and in order.
	progs := []Program{
		{
			Compute{Duration: texec, Step: 0},
			Isend{To: 1, Bytes: 100, Tag: 7},
			Isend{To: 1, Bytes: 100, Tag: 7},
			Waitall{Step: 0},
		},
		{
			Compute{Duration: texec, Step: 0},
			Irecv{From: 0, Bytes: 100, Tag: 7},
			Irecv{From: 0, Bytes: 100, Tag: 7},
			Waitall{Step: 0},
		},
	}
	if _, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs); err != nil {
		t.Fatal(err)
	}
}

func TestLateReceiverStillMatchesBufferedEager(t *testing.T) {
	// The receiver posts its receive two "steps" after the message was
	// sent: the unexpected-message queue must hold it.
	progs := []Program{
		{Isend{To: 1, Bytes: 64, Tag: 0}, Waitall{Step: 0}},
		{
			Compute{Duration: 5 * texec, Step: 0}, Waitall{Step: 0},
			Irecv{From: 0, Bytes: 64, Tag: 0}, Waitall{Step: 1},
		},
	}
	res, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver completes right after its compute: no extra wait.
	if w := res.Traces.Ranks[1].TotalBy(trace.Wait); w > sim.Micro(100) {
		t.Errorf("receiver waited %v on a buffered message", w)
	}
}

func TestRendezvousUnmatchedDeadlocks(t *testing.T) {
	// A rendezvous send whose receive is never posted must be reported
	// as a deadlock, not hang or silently succeed.
	progs := []Program{
		{Isend{To: 1, Bytes: largeMsg, Tag: 0}, Waitall{Step: 0}},
		{Compute{Duration: texec, Step: 0}},
	}
	if _, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs); err == nil {
		t.Fatal("unmatched rendezvous send did not deadlock")
	}
}

func TestMultipleWaitallEpochs(t *testing.T) {
	// Requests from different Waitall epochs must not interfere: three
	// epochs per step-less program, mixed sends and receives.
	progs := []Program{
		{
			Isend{To: 1, Bytes: 64, Tag: 0}, Waitall{Step: 0},
			Isend{To: 1, Bytes: 64, Tag: 1}, Waitall{Step: 1},
			Irecv{From: 1, Bytes: 64, Tag: 2}, Waitall{Step: 2},
		},
		{
			Irecv{From: 0, Bytes: 64, Tag: 0}, Waitall{Step: 0},
			Irecv{From: 0, Bytes: 64, Tag: 1}, Waitall{Step: 1},
			Isend{To: 0, Bytes: 64, Tag: 2}, Waitall{Step: 2},
		},
	}
	res, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces.Steps() != 3 {
		t.Errorf("steps = %d, want 3", res.Traces.Steps())
	}
}

func TestEmptyProgramFinishesImmediately(t *testing.T) {
	res, err := Run(Config{Ranks: 2, Net: testNet(t)}, []Program{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if res.End != 0 {
		t.Errorf("empty programs ended at %v", res.End)
	}
}

func BenchmarkRing100x100(b *testing.B) {
	c, err := topology.NewChain(100, 1, topology.Bidirectional, topology.Periodic)
	if err != nil {
		b.Fatal(err)
	}
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, eagerLimit)
	if err != nil {
		b.Fatal(err)
	}
	rs := ringSpec{chain: c, steps: 100, bytes: smallMsg}
	var progs []Program
	for i := 0; i < c.N; i++ {
		var p Program
		for step := 0; step < rs.steps; step++ {
			p = append(p, Compute{Duration: texec, Step: step})
			for _, to := range c.SendTargets(i) {
				p = append(p, Isend{To: to, Bytes: rs.bytes, Tag: step})
			}
			for _, from := range c.RecvSources(i) {
				p = append(p, Irecv{From: from, Bytes: rs.bytes, Tag: step})
			}
			p = append(p, Waitall{Step: step})
		}
		progs = append(progs, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Ranks: 100, Net: net}, progs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCrossProtocolEagerPreferredOverRTS(t *testing.T) {
	// Documents the matcher's cross-protocol ordering guarantee: for the
	// same (source, tag) channel, a posted receive always consumes a
	// buffered *eager* message before a queued rendezvous handshake —
	// even when the rendezvous RTS was queued first. (Within each
	// protocol, matching stays FIFO; see TestFIFOMatchingSameTag.)
	//
	// Rank 0 posts an eager send and then a rendezvous send, both with
	// tag 7, and enters Waitall. The RTS reaches rank 1's matcher
	// immediately (the Hockney test net has zero send overhead; a model
	// with overhead would delay it by oSend, still far below the delay),
	// before the eager payload arrives one transfer later. Rank 1
	// sits in a delay until both are queued, then posts its first
	// receive: under eager-first matching its first Waitall completes at
	// the delay end (the eager data is already local), whereas arrival-
	// order matching would hand it the RTS and stall the first Waitall
	// for the full rendezvous transfer of the large message.
	delay := sim.Milli(1)
	transferLarge := sim.Time(float64(largeMsg) / 3e9)
	progs := []Program{
		{
			Isend{To: 1, Bytes: smallMsg, Tag: 7},
			Isend{To: 1, Bytes: largeMsg, Tag: 7},
			Waitall{Step: 0},
		},
		{
			Delay{Duration: delay, Step: 0},
			Irecv{From: 0, Bytes: smallMsg, Tag: 7},
			Waitall{Step: 0},
			Irecv{From: 0, Bytes: largeMsg, Tag: 7},
			Waitall{Step: 1},
		},
	}
	res, err := Run(Config{Ranks: 2, Net: testNet(t)}, progs)
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Traces.Ranks[1].StepEnd
	if len(steps) != 2 {
		t.Fatalf("rank 1 completed %d steps, want 2", len(steps))
	}
	// First Waitall: matched the eager message, so it ends essentially at
	// the delay end — far before a rendezvous transfer could complete.
	if steps[0] > delay+transferLarge/2 {
		t.Errorf("first Waitall ended at %v; eager-first matching should end it at ~%v, "+
			"arrival-order matching would stall it to ~%v", steps[0], delay, delay+transferLarge)
	}
	// Second Waitall: the rendezvous transfer starts once its receive is
	// posted (the sender's gate is already open), so it ends one large
	// transfer later.
	if steps[1] < delay+transferLarge {
		t.Errorf("second Waitall ended at %v, before the rendezvous transfer could finish (%v)",
			steps[1], delay+transferLarge)
	}
}

func TestOpNameMatchesReflection(t *testing.T) {
	// OpName's typed switch replaced fmt.Sprintf("%T"); the names must
	// stay identical so CountOps output is unchanged.
	ops := []Op{Compute{}, Delay{}, Isend{}, Irecv{}, Waitall{}}
	for _, op := range ops {
		if got, want := OpName(op), fmt.Sprintf("%T", op); got != want {
			t.Errorf("OpName(%T) = %q, want %q", op, got, want)
		}
	}
}
