package netmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestHockneyTransfer(t *testing.T) {
	h, err := NewHockney(sim.Micro(2), 1e9, 16384)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB at 1 GB/s = 1 ms, plus 2 us latency.
	got := h.Transfer(0, 1, 1<<20)
	want := sim.Micro(2) + sim.Time(float64(1<<20)/1e9)
	if math.Abs(float64(got-want)) > 1e-15 {
		t.Errorf("Transfer = %v, want %v", got, want)
	}
	if h.SendOverhead(0, 1, 100) != 0 || h.RecvOverhead(0, 1, 100) != 0 {
		t.Error("Hockney should have zero overheads")
	}
}

func TestHockneyProtocolSwitch(t *testing.T) {
	h, _ := NewHockney(0, 1e9, 16384)
	if p := h.ProtocolFor(0, 1, 16384); p != Eager {
		t.Errorf("at limit: %v, want eager", p)
	}
	if p := h.ProtocolFor(0, 1, 16385); p != Rendezvous {
		t.Errorf("above limit: %v, want rendezvous", p)
	}
	if p := h.ProtocolFor(0, 1, 0); p != Eager {
		t.Errorf("zero bytes: %v, want eager", p)
	}
}

func TestHockneyValidation(t *testing.T) {
	if _, err := NewHockney(-1, 1e9, 0); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewHockney(0, 0, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewHockney(0, 1, -1); err == nil {
		t.Error("negative eager limit accepted")
	}
	for name, c := range map[string]struct {
		lat sim.Time
		bw  float64
	}{
		"NaN latency":        {sim.Time(math.NaN()), 1e9},
		"infinite latency":   {sim.Time(math.Inf(1)), 1e9},
		"NaN bandwidth":      {0, math.NaN()},
		"infinite bandwidth": {0, math.Inf(1)},
	} {
		if _, err := NewHockney(c.lat, c.bw, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLogGOPSCosts(t *testing.T) {
	m, err := NewLogGOPS(sim.Micro(1), sim.Micro(0.5), sim.Micro(0.7), sim.Time(1e-9), sim.Time(2e-10), 1024)
	if err != nil {
		t.Fatal(err)
	}
	bytes := 1000
	if got, want := m.Transfer(0, 1, bytes), sim.Micro(1)+sim.Time(1000*1e-9); math.Abs(float64(got-want)) > 1e-18 {
		t.Errorf("Transfer = %v, want %v", got, want)
	}
	if got, want := m.SendOverhead(0, 1, bytes), sim.Micro(0.5)+sim.Time(1000*2e-10); math.Abs(float64(got-want)) > 1e-18 {
		t.Errorf("SendOverhead = %v, want %v", got, want)
	}
	if got, want := m.RecvOverhead(0, 1, bytes), sim.Micro(0.7)+sim.Time(1000*2e-10); math.Abs(float64(got-want)) > 1e-18 {
		t.Errorf("RecvOverhead = %v, want %v", got, want)
	}
}

func TestLogGOPSValidation(t *testing.T) {
	if _, err := NewLogGOPS(-1, 0, 0, 0, 0, 0); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := NewLogGOPS(0, 0, 0, 0, 0, -5); err == nil {
		t.Error("negative eager limit accepted")
	}
	nan, inf := sim.Time(math.NaN()), sim.Time(math.Inf(1))
	for i, p := range [][5]sim.Time{{nan, 0, 0, 0, 0}, {0, nan, 0, 0, 0}, {0, 0, inf, 0, 0}, {0, 0, 0, nan, 0}, {0, 0, 0, 0, inf}} {
		if _, err := NewLogGOPS(p[0], p[1], p[2], p[3], p[4], 0); err == nil {
			t.Errorf("non-finite parameter %d accepted", i)
		}
	}
}

func TestHierarchicalSelection(t *testing.T) {
	place, err := topology.NewPlacement(40, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	is, _ := NewHockney(sim.Micro(0.3), 10e9, 1<<20)
	in, _ := NewHockney(sim.Micro(0.8), 6e9, 1<<20)
	xn, _ := NewHockney(sim.Micro(2.0), 3e9, 1<<17)
	h, err := NewHierarchical(place, is, in, xn)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0 and 5 share socket 0.
	if got := h.Transfer(0, 5, 0); got != sim.Micro(0.3) {
		t.Errorf("intra-socket latency = %v, want 0.3us", got)
	}
	// Ranks 5 and 15 share node 0 but not a socket.
	if got := h.Transfer(5, 15, 0); got != sim.Micro(0.8) {
		t.Errorf("intra-node latency = %v, want 0.8us", got)
	}
	// Ranks 5 and 25 are on different nodes.
	if got := h.Transfer(5, 25, 0); got != sim.Micro(2.0) {
		t.Errorf("inter-node latency = %v, want 2us", got)
	}
	// Eager limit follows the selected layer too.
	if p := h.ProtocolFor(0, 5, 1<<18); p != Eager {
		t.Errorf("intra-socket 256K: %v, want eager (limit 1M)", p)
	}
	if p := h.ProtocolFor(5, 25, 1<<18); p != Rendezvous {
		t.Errorf("inter-node 256K: %v, want rendezvous (limit 128K)", p)
	}
}

func TestHierarchicalValidation(t *testing.T) {
	place, _ := topology.NewPlacement(4, 2, 1)
	m, _ := NewHockney(0, 1, 0)
	if _, err := NewHierarchical(nil, m, m, m); err == nil {
		t.Error("nil locator accepted")
	}
	if _, err := NewHierarchical(place, nil, m, m); err == nil {
		t.Error("nil inner model accepted")
	}
}

func TestPingPong(t *testing.T) {
	m, _ := NewLogGOPS(sim.Micro(1), sim.Micro(2), sim.Micro(3), 0, 0, 0)
	if got := PingPong(m, 0, 1, 0); got != sim.Micro(6) {
		t.Errorf("PingPong = %v, want 6us", got)
	}
}

// Property: transfer time is monotone non-decreasing in message size for
// both model families.
func TestTransferMonotoneProperty(t *testing.T) {
	hock, _ := NewHockney(sim.Micro(1), 3e9, 1<<17)
	lgp, _ := NewLogGOPS(sim.Micro(1), sim.Micro(0.2), sim.Micro(0.2), sim.Time(3e-10), sim.Time(1e-10), 1<<14)
	models := []Model{hock, lgp}
	f := func(aRaw, bRaw uint32) bool {
		a, b := int(aRaw%(1<<22)), int(bRaw%(1<<22))
		if a > b {
			a, b = b, a
		}
		for _, m := range models {
			if m.Transfer(0, 1, a) > m.Transfer(0, 1, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: protocol is eager iff size <= limit, for any limit.
func TestProtocolThresholdProperty(t *testing.T) {
	f := func(limitRaw, sizeRaw uint32) bool {
		limit := int(limitRaw % (1 << 20))
		size := int(sizeRaw % (1 << 21))
		h, err := NewHockney(0, 1e9, limit)
		if err != nil {
			return false
		}
		want := Eager
		if size > limit {
			want = Rendezvous
		}
		return h.ProtocolFor(0, 1, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// buildTrio returns one model of each family sharing an eager limit,
// with the hierarchical one spanning a 40-rank compact placement.
func buildTrio(t *testing.T, eagerLimit int) (*Hockney, *LogGOPS, *Hierarchical) {
	t.Helper()
	hock, err := NewHockney(sim.Micro(2), 3e9, eagerLimit)
	if err != nil {
		t.Fatal(err)
	}
	lgp, err := NewLogGOPS(sim.Micro(1.8), sim.Micro(0.4), sim.Micro(0.4), sim.Time(1/3e9), 0, eagerLimit)
	if err != nil {
		t.Fatal(err)
	}
	place, err := topology.NewPlacement(40, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := NewLogGOPS(sim.Micro(0.5), sim.Micro(0.4), sim.Micro(0.4), sim.Time(1/6e9), 0, eagerLimit)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewHierarchical(place, intra, intra, lgp)
	if err != nil {
		t.Fatal(err)
	}
	return hock, lgp, hier
}

// Property: PingPong is monotone non-decreasing in message size for all
// three model families, including the hierarchical one on any rank pair.
func TestPingPongMonotoneInBytesProperty(t *testing.T) {
	hock, lgp, hier := buildTrio(t, 1<<17)
	f := func(aRaw, bRaw uint32, fromRaw, toRaw uint8) bool {
		a, b := int(aRaw%(1<<22)), int(bRaw%(1<<22))
		if a > b {
			a, b = b, a
		}
		from, to := int(fromRaw)%40, int(toRaw)%40
		for _, m := range []Model{hock, lgp, hier} {
			if PingPong(m, from, to, a) > PingPong(m, from, to, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the hierarchical model's inner-model choice is symmetric in
// the rank pair — Classify is direction-free, so every cost and the
// protocol must agree between (a,b) and (b,a).
func TestHierarchicalPickSymmetryProperty(t *testing.T) {
	_, _, hier := buildTrio(t, 1<<14)
	f := func(aRaw, bRaw uint8, bytesRaw uint32) bool {
		a, b := int(aRaw)%40, int(bRaw)%40
		n := int(bytesRaw % (1 << 20))
		return PingPong(hier, a, b, n) == PingPong(hier, b, a, n) &&
			hier.Transfer(a, b, n) == hier.Transfer(b, a, n) &&
			hier.ProtocolFor(a, b, n) == hier.ProtocolFor(b, a, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: all three model families switch protocol consistently at the
// shared eager limit — Eager at and below it, Rendezvous strictly above,
// regardless of the rank pair the hierarchical model classifies.
func TestProtocolSwitchConsistentAcrossModels(t *testing.T) {
	const limit = 1 << 15
	hock, lgp, hier := buildTrio(t, limit)
	pairs := [][2]int{{0, 1}, {0, 5}, {0, 15}, {0, 25}, {12, 38}, {39, 0}}
	for _, m := range []Model{hock, lgp, hier} {
		for _, pr := range pairs {
			for _, c := range []struct {
				bytes int
				want  Protocol
			}{{0, Eager}, {limit - 1, Eager}, {limit, Eager}, {limit + 1, Rendezvous}, {1 << 20, Rendezvous}} {
				if got := m.ProtocolFor(pr[0], pr[1], c.bytes); got != c.want {
					t.Errorf("%v: ProtocolFor(%d,%d,%d) = %v, want %v", m, pr[0], pr[1], c.bytes, got, c.want)
				}
			}
		}
	}
}

func TestModelStrings(t *testing.T) {
	hock, lgp, hier := buildTrio(t, 1<<17)
	for _, m := range []Model{hock, lgp, hier} {
		s, ok := m.(fmt.Stringer)
		if !ok || s.String() == "" {
			t.Errorf("%T has no usable String()", m)
		}
	}
	if got := hock.String(); got != "hockney:lat=2µs:bw=3GB/s:eager=131072" {
		t.Errorf("Hockney String = %q", got)
	}
}

func TestProtocolString(t *testing.T) {
	if Eager.String() != "eager" || Rendezvous.String() != "rendezvous" {
		t.Error("protocol strings wrong")
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol empty string")
	}
}
