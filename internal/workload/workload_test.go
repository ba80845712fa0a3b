package workload

import (
	"math"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

func mkChain(t *testing.T, n, d int, dir topology.Direction, b topology.Boundary) topology.Chain {
	t.Helper()
	c, err := topology.NewChain(n, d, dir, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBulkSyncValidate(t *testing.T) {
	good := BulkSync{
		Topo:  mkChain(t, 8, 1, topology.Unidirectional, topology.Open),
		Steps: 5, Texec: sim.Milli(3), Bytes: 8192,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*BulkSync)
	}{
		{"nil topology", func(b *BulkSync) { b.Topo = nil }},
		{"empty topology", func(b *BulkSync) { b.Topo = topology.Chain{} }},
		{"zero steps", func(b *BulkSync) { b.Steps = 0 }},
		{"negative texec", func(b *BulkSync) { b.Texec = -1 }},
		{"NaN texec", func(b *BulkSync) { b.Texec = sim.Time(math.NaN()) }},
		{"infinite texec", func(b *BulkSync) { b.Texec = sim.Time(math.Inf(1)) }},
		{"NaN membytes", func(b *BulkSync) { b.MemBytes = math.NaN() }},
		{"zero exec", func(b *BulkSync) { b.Texec = 0; b.MemBytes = 0 }},
		{"zero bytes", func(b *BulkSync) { b.Bytes = 0 }},
		{"bad injection rank", func(b *BulkSync) {
			b.Injections = []noise.Injection{{Rank: 99, Step: 0, Duration: 1}}
		}},
		{"bad injection step", func(b *BulkSync) {
			b.Injections = []noise.Injection{{Rank: 0, Step: 99, Duration: 1}}
		}},
		{"zero injection", func(b *BulkSync) {
			b.Injections = []noise.Injection{{Rank: 0, Step: 0, Duration: 0}}
		}},
		{"NaN injection", func(b *BulkSync) {
			b.Injections = []noise.Injection{{Rank: 0, Step: 0, Duration: sim.Time(math.NaN())}}
		}},
	}
	for _, c := range cases {
		b := good
		c.mut(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if _, err := b.Programs(); err == nil {
			t.Errorf("%s: Programs accepted", c.name)
		}
	}
}

func TestBulkSyncProgramShape(t *testing.T) {
	b := BulkSync{
		Topo:  mkChain(t, 6, 1, topology.Bidirectional, topology.Periodic),
		Steps: 4, Texec: sim.Milli(3), Bytes: 8192,
		Injections: []noise.Injection{{Rank: 2, Step: 1, Duration: sim.Milli(9)}},
	}
	progs, err := b.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 6 {
		t.Fatalf("programs = %d", len(progs))
	}
	// Per step: compute + 2 sends + 2 recvs + waitall = 6 ops; rank 2 has
	// one extra delay op.
	counts := mpisim.CountOps(progs[0])
	if counts["mpisim.Compute"] != 4 || counts["mpisim.Isend"] != 8 ||
		counts["mpisim.Irecv"] != 8 || counts["mpisim.Waitall"] != 4 {
		t.Errorf("rank 0 op counts = %v", counts)
	}
	if mpisim.CountOps(progs[2])["mpisim.Delay"] != 1 {
		t.Error("rank 2 missing injected delay")
	}
	if mpisim.CountOps(progs[0])["mpisim.Delay"] != 0 {
		t.Error("rank 0 has spurious delay")
	}
}

func TestBulkSyncMergesInjectionsOnSameStep(t *testing.T) {
	b := BulkSync{
		Topo:  mkChain(t, 4, 1, topology.Unidirectional, topology.Open),
		Steps: 2, Texec: sim.Milli(1), Bytes: 64,
		Injections: []noise.Injection{
			{Rank: 1, Step: 0, Duration: sim.Milli(2)},
			{Rank: 1, Step: 0, Duration: sim.Milli(3)},
		},
	}
	progs, err := b.Programs()
	if err != nil {
		t.Fatal(err)
	}
	var total sim.Time
	for _, op := range progs[1] {
		if d, ok := op.(mpisim.Delay); ok {
			total += d.Duration
		}
	}
	if total != sim.Milli(5) {
		t.Errorf("merged delay = %v, want 5ms", total)
	}
}

func TestBulkSyncRunsEndToEnd(t *testing.T) {
	b := BulkSync{
		Topo:  mkChain(t, 8, 1, topology.Bidirectional, topology.Periodic),
		Steps: 6, Texec: sim.Milli(1), Bytes: 8192,
	}
	progs, err := b.Programs()
	if err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpisim.Run(mpisim.Config{Ranks: 8, Net: net}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces.Steps() != 6 {
		t.Errorf("steps = %d", res.Traces.Steps())
	}
}

func TestStreamTriadSplitsWorkingSet(t *testing.T) {
	s := StreamTriad{Ranks: 10, Steps: 3, WorkingSet: 1.2e9, MessageBytes: 2_000_000}
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	// Each compute op must carry 1.2e9/10 bytes.
	for _, op := range progs[0] {
		if c, ok := op.(mpisim.Compute); ok {
			if math.Abs(c.MemBytes-1.2e8) > 1 {
				t.Errorf("per-rank volume = %g, want 1.2e8", c.MemBytes)
			}
			break
		}
	}
	if _, err := (StreamTriad{Ranks: 2, Steps: 1, WorkingSet: 1, MessageBytes: 1}).Programs(); err == nil {
		t.Error("2-rank ring accepted")
	}
	if _, err := (StreamTriad{Ranks: 5, Steps: 1, WorkingSet: 0, MessageBytes: 1}).Programs(); err == nil {
		t.Error("zero working set accepted")
	}
}

func TestLBMGeometry(t *testing.T) {
	l := LBM{Ranks: 100, Steps: 10, CellsPerDim: 302}
	// Halo: 302^2 cells * 5 distributions * 8 B.
	wantHalo := 302 * 302 * 5 * 8
	if got := l.HaloBytes(); got != wantHalo {
		t.Errorf("halo = %d, want %d", got, wantHalo)
	}
	// Slab traffic: 302^3 * 19 * 8 * 2 / 100.
	want := 302.0 * 302 * 302 * 19 * 8 * 2 / 100
	if got := l.MemBytesPerRank(); math.Abs(got-want) > 1 {
		t.Errorf("slab bytes = %g, want %g", got, want)
	}
	progs, err := l.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 100 {
		t.Errorf("programs = %d", len(progs))
	}
}

func TestLBMCommunicationOverheadIsSubstantial(t *testing.T) {
	// The paper quotes >= 30% communication overhead for this setup on
	// 100 ranks. Check the model-level ratio: halo transfer time vs slab
	// streaming time with the Emmy-like parameters (3 GB/s, 40 GB/s).
	l := LBM{Ranks: 100, Steps: 1, CellsPerDim: 302}
	slabTime := l.MemBytesPerRank() / 40e9 * 10 // 10 ranks share a socket
	haloTime := 2 * 2 * float64(l.HaloBytes()) / 3e9
	ratio := haloTime / (slabTime + haloTime)
	// The paper reports >= 30% measured overhead, which includes NIC
	// contention and wait times our fully non-blocking fabric does not
	// charge; the pure-transfer ratio is a lower bound.
	if ratio < 0.15 {
		t.Errorf("comm fraction = %.2f, expected >= 0.15", ratio)
	}
}

func TestLBMValidation(t *testing.T) {
	if _, err := (LBM{Ranks: 1, Steps: 1, CellsPerDim: 10}).Programs(); err == nil {
		t.Error("1-rank LBM accepted")
	}
	if _, err := (LBM{Ranks: 10, Steps: 1, CellsPerDim: 0}).Programs(); err == nil {
		t.Error("zero domain accepted")
	}
}

func TestDivideKernel(t *testing.T) {
	d := DivideKernel{Ranks: 4, Steps: 10, PhaseTime: sim.Milli(3)}
	progs, err := d.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 4 {
		t.Fatalf("programs = %d", len(progs))
	}
	// Messages must be tiny (latency-bound).
	for _, op := range progs[1] {
		if s, ok := op.(mpisim.Isend); ok && s.Bytes > 64 {
			t.Errorf("divide kernel message %d B, want latency-bound", s.Bytes)
		}
	}
	if _, err := (DivideKernel{Ranks: 1, Steps: 1, PhaseTime: 1}).Programs(); err == nil {
		t.Error("1-rank kernel accepted")
	}
	if _, err := (DivideKernel{Ranks: 4, Steps: 1, PhaseTime: 0}).Programs(); err == nil {
		t.Error("zero phase accepted")
	}
}

func TestDivideKernelMeasuresPureNoise(t *testing.T) {
	// Run the divide kernel with known injected noise and verify the
	// recorded noise deviations match what was injected.
	d := DivideKernel{Ranks: 4, Steps: 50, PhaseTime: sim.Milli(3)}
	progs, err := d.Programs()
	if err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.NewHockney(sim.Micro(1), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	inj := noise.Exponential(7, 0.001, sim.Milli(3)) // mean 3 us
	res, err := mpisim.Run(mpisim.Config{Ranks: 4, Net: net, Noise: inj}, progs)
	if err != nil {
		t.Fatal(err)
	}
	// Average noise per phase must be near 3 us.
	var total float64
	var count int
	for _, rt := range res.Traces.Ranks {
		for _, seg := range rt.Segments {
			if seg.Kind == 2 { // trace.Noise
				total += float64(seg.Duration())
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("no noise segments recorded")
	}
	mean := total / float64(count)
	if mean < 1e-6 || mean > 6e-6 {
		t.Errorf("mean recorded noise = %g s, want ~3us", mean)
	}
}
