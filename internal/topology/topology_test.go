package topology

import (
	"reflect"
	"testing"
	"testing/quick"
)

func mustChain(t *testing.T, n, d int, dir Direction, b Boundary) Chain {
	t.Helper()
	c, err := NewChain(n, d, dir, b)
	if err != nil {
		t.Fatalf("NewChain(%d,%d,%v,%v): %v", n, d, dir, b, err)
	}
	return c
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain(0, 1, Unidirectional, Open); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewChain(5, 0, Unidirectional, Open); err == nil {
		t.Error("zero distance accepted")
	}
	if _, err := NewChain(4, 2, Bidirectional, Periodic); err == nil {
		t.Error("periodic chain with 2d >= n accepted")
	}
	if _, err := NewChain(5, 2, Bidirectional, Periodic); err != nil {
		t.Errorf("valid periodic chain rejected: %v", err)
	}
}

func TestUnidirectionalOpenNeighbors(t *testing.T) {
	c := mustChain(t, 5, 1, Unidirectional, Open)
	cases := []struct {
		rank       int
		sends, rcv []int
	}{
		{0, []int{1}, nil},
		{2, []int{3}, []int{1}},
		{4, nil, []int{3}},
	}
	for _, tc := range cases {
		if got := c.SendTargets(tc.rank); !reflect.DeepEqual(got, tc.sends) {
			t.Errorf("rank %d sends = %v, want %v", tc.rank, got, tc.sends)
		}
		if got := c.RecvSources(tc.rank); !reflect.DeepEqual(got, tc.rcv) {
			t.Errorf("rank %d recvs = %v, want %v", tc.rank, got, tc.rcv)
		}
	}
}

func TestUnidirectionalPeriodicWraps(t *testing.T) {
	c := mustChain(t, 5, 1, Unidirectional, Periodic)
	if got := c.SendTargets(4); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("rank 4 sends = %v, want [0]", got)
	}
	if got := c.RecvSources(0); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("rank 0 recvs = %v, want [4]", got)
	}
}

func TestBidirectionalNeighbors(t *testing.T) {
	c := mustChain(t, 6, 1, Bidirectional, Open)
	if got := c.SendTargets(3); !reflect.DeepEqual(got, []int{4, 2}) {
		t.Errorf("sends = %v, want [4 2]", got)
	}
	if got := c.RecvSources(3); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Errorf("recvs = %v, want [2 4]", got)
	}
}

func TestDistance2Neighbors(t *testing.T) {
	c := mustChain(t, 9, 2, Bidirectional, Open)
	if got := c.SendTargets(4); !reflect.DeepEqual(got, []int{5, 6, 3, 2}) {
		t.Errorf("d=2 sends = %v, want [5 6 3 2]", got)
	}
	// Edge rank keeps only in-range partners.
	if got := c.SendTargets(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("edge sends = %v, want [1 2]", got)
	}
	if got := c.RecvSources(1); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Errorf("edge recvs = %v, want [0 2 3]", got)
	}
}

func TestSendRecvAreDuals(t *testing.T) {
	// If i sends to j, then j must list i as a receive source — for every
	// combination of direction, boundary, and distance.
	for _, dir := range []Direction{Unidirectional, Bidirectional} {
		for _, b := range []Boundary{Open, Periodic} {
			for _, d := range []int{1, 2, 3} {
				n := 11
				c := mustChain(t, n, d, dir, b)
				for i := 0; i < n; i++ {
					for _, j := range c.SendTargets(i) {
						found := false
						for _, s := range c.RecvSources(j) {
							if s == i {
								found = true
							}
						}
						if !found {
							t.Errorf("%v: %d sends to %d but %d does not receive from %d",
								c, i, j, j, i)
						}
					}
				}
			}
		}
	}
}

func TestHopDistance(t *testing.T) {
	open := mustChain(t, 10, 1, Unidirectional, Open)
	if d := open.HopDistance(2, 9); d != 7 {
		t.Errorf("open distance = %d, want 7", d)
	}
	per := mustChain(t, 10, 1, Unidirectional, Periodic)
	if d := per.HopDistance(2, 9); d != 3 {
		t.Errorf("periodic distance = %d, want 3", d)
	}
	if d := per.HopDistance(5, 5); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestChainPanicsOnBadRank(t *testing.T) {
	c := mustChain(t, 4, 1, Unidirectional, Open)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	c.SendTargets(4)
}

func TestStringers(t *testing.T) {
	for _, s := range []string{
		Open.String(), Periodic.String(),
		Unidirectional.String(), Bidirectional.String(),
		IntraSocket.String(), IntraNode.String(), InterNode.String(),
		mustChain(t, 3, 1, Unidirectional, Open).String(),
	} {
		if s == "" {
			t.Error("empty String()")
		}
	}
	if Boundary(99).String() == "" || Direction(99).String() == "" || Locality(99).String() == "" {
		t.Error("unknown enum value produced empty string")
	}
}

func TestPlacementMapping(t *testing.T) {
	// Emmy-like: 10 cores/socket, 2 sockets/node, 100 ranks = 5 nodes.
	p, err := NewPlacement(100, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Socket(0) != 0 || p.Socket(9) != 0 || p.Socket(10) != 1 || p.Socket(99) != 9 {
		t.Error("socket mapping wrong")
	}
	if p.Node(0) != 0 || p.Node(19) != 0 || p.Node(20) != 1 || p.Node(99) != 4 {
		t.Error("node mapping wrong")
	}
	if !p.SameSocket(3, 7) || p.SameSocket(9, 10) {
		t.Error("SameSocket wrong")
	}
	if !p.SameNode(9, 10) || p.SameNode(19, 20) {
		t.Error("SameNode wrong")
	}
	if p.Nodes() != 5 {
		t.Errorf("Nodes = %d, want 5", p.Nodes())
	}
}

func TestPlacementPartialSocket(t *testing.T) {
	p, err := NewPlacement(15, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Socket(14) != 1 {
		t.Errorf("Socket(14) = %d, want 1", p.Socket(14))
	}
	if p.Nodes() != 1 {
		t.Errorf("Nodes = %d, want 1", p.Nodes())
	}
}

func TestPlacementValidation(t *testing.T) {
	if _, err := NewPlacement(0, 1, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewPlacement(1, 0, 1); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestSpreadPlacement(t *testing.T) {
	// PPN=1 on dual-socket nodes: each rank on its own node.
	p, err := NewSpreadPlacement(8, 1, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 8 {
		t.Errorf("Nodes = %d, want 8", p.Nodes())
	}
	if p.SameNode(0, 1) {
		t.Error("PPN=1 ranks share a node")
	}
	// PPN=2: local ranks land on alternating sockets of the same node.
	p2, err := NewSpreadPlacement(8, 2, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.SameNode(0, 1) || p2.SameNode(1, 2) {
		t.Error("PPN=2 node mapping wrong")
	}
	if p2.SameSocket(0, 1) {
		t.Error("PPN=2 local ranks should use different sockets")
	}
	if _, err := NewSpreadPlacement(8, 21, 10, 2); err == nil {
		t.Error("PPN over capacity accepted")
	}
}

func TestClassify(t *testing.T) {
	p, _ := NewPlacement(40, 10, 2)
	if l := Classify(p, 0, 5); l != IntraSocket {
		t.Errorf("Classify(0,5) = %v", l)
	}
	if l := Classify(p, 5, 15); l != IntraNode {
		t.Errorf("Classify(5,15) = %v", l)
	}
	if l := Classify(p, 5, 25); l != InterNode {
		t.Errorf("Classify(5,25) = %v", l)
	}
}

// Property: every rank has exactly the expected neighbor counts in a
// periodic chain (no boundary truncation): d sends for unidirectional,
// 2d for bidirectional; same for receives.
func TestPeriodicNeighborCountProperty(t *testing.T) {
	f := func(nRaw, dRaw uint8) bool {
		d := int(dRaw%3) + 1
		n := 2*d + 1 + int(nRaw%20)
		for _, dir := range []Direction{Unidirectional, Bidirectional} {
			c, err := NewChain(n, d, dir, Periodic)
			if err != nil {
				return false
			}
			want := d
			if dir == Bidirectional {
				want = 2 * d
			}
			for i := 0; i < n; i++ {
				if len(c.SendTargets(i)) != want || len(c.RecvSources(i)) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: HopDistance is symmetric and bounded by N/2 on periodic chains.
func TestHopDistanceProperty(t *testing.T) {
	f := func(nRaw, aRaw, bRaw uint8) bool {
		n := int(nRaw%30) + 3
		c, err := NewChain(n, 1, Unidirectional, Periodic)
		if err != nil {
			return false
		}
		a, b := int(aRaw)%n, int(bRaw)%n
		d1, d2 := c.HopDistance(a, b), c.HopDistance(b, a)
		return d1 == d2 && d1 <= n/2 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
