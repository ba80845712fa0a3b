// Package topology describes how MPI-like ranks are laid out on a cluster
// (rank -> core/socket/node placement) and which ranks communicate with
// which (next-neighbor shells of distance d, unidirectional or
// bidirectional, with open or periodic boundaries).
//
// The paper's experiments all use one-dimensional process chains with
// point-to-point next-neighbor (d=1) or next-to-next-neighbor (d=2)
// patterns; this package generalizes to arbitrary d and, through the
// Topology interface, to arbitrary Cartesian grids and tori (Grid) for
// multi-dimensional halo-exchange scenarios.
package topology

import "fmt"

// Topology is the communication structure every workload builder and
// wave-analytics consumer programs against. A topology defines a fixed
// set of ranks 0..Ranks()-1, the deterministic per-rank send/receive
// partner lists, and a hop metric.
//
// Contracts every implementation must satisfy (pinned by the property
// tests in this package):
//
//   - duality: j ∈ SendTargets(i) ⇔ i ∈ RecvSources(j);
//   - SendTargets/RecvSources return partners in a deterministic order
//     and never include the rank itself;
//   - HopDistance is a metric on ranks: symmetric, zero iff a == b, and
//     obeying the triangle inequality. It is the topology's native
//     index distance (chain distance, Manhattan distance on grids),
//     independent of the neighbor distance d and the direction — the
//     x-axis of every wave-front fit.
type Topology interface {
	// Ranks returns the number of ranks in the topology.
	Ranks() int
	// SendTargets returns the ranks that rank i sends to.
	SendTargets(i int) []int
	// RecvSources returns the ranks that rank i receives from.
	RecvSources(i int) []int
	// HopDistance returns the minimal index distance between two ranks,
	// honoring periodic boundaries.
	HopDistance(a, b int) int
	// String describes the topology for labels and reports.
	String() string
}

// Directed is the optional interface for topologies that can also
// measure hop distance following the send direction only. Idle waves
// under eager protocols travel only in the send direction, so on a
// unidirectional topology with wrap-around (a ring, a torus) the front
// must be tracked with this directed metric — the symmetric HopDistance
// would fold the wrapped front back onto itself. DirectedHopDistance
// returns -1 when the destination is unreachable along the send
// direction (open boundaries).
type Directed interface {
	Topology
	DirectedHopDistance(from, to int) int
}

// ForwardOnly reports whether an eager-protocol idle wave on the
// topology travels only in the send direction and can wrap back around
// — the case that must be tracked with the Directed metric rather than
// the symmetric HopDistance, which would fold the wrapped front back
// onto itself. Topologies advertise the property through an optional
// ForwardOnly() bool method; Chain and Grid implement it (true for
// unidirectional topologies with a periodic dimension).
func ForwardOnly(t Topology) bool {
	if f, ok := t.(interface{ ForwardOnly() bool }); ok {
		return f.ForwardOnly()
	}
	return false
}

// Shells groups every rank of the topology by hop distance from the
// source rank: Shells(t, s)[h] lists the ranks at distance h, in
// ascending rank order. On a chain the shells are rank pairs {s-h, s+h};
// on a grid they are the Manhattan balls' surfaces an idle wave expands
// through (BFS order from the injection rank). Ranks the metric reports
// unreachable (negative distance, e.g. across job-mix blocks) belong to
// no shell.
func Shells(t Topology, source int) [][]int {
	n := t.Ranks()
	maxHop := 0
	hops := make([]int, n)
	for r := 0; r < n; r++ {
		hops[r] = t.HopDistance(source, r)
		if hops[r] > maxHop {
			maxHop = hops[r]
		}
	}
	out := make([][]int, maxHop+1)
	for r := 0; r < n; r++ {
		if hops[r] < 0 {
			continue
		}
		out[hops[r]] = append(out[hops[r]], r)
	}
	return out
}

// Boundary selects how the ends of the process chain behave.
type Boundary int

const (
	// Open boundaries: ranks at the chain ends simply have fewer
	// neighbors; idle waves run out at the edge (Fig. 5a).
	Open Boundary = iota
	// Periodic boundaries: the chain closes into a ring; idle waves wrap
	// around and can hit their own origin (Fig. 5b).
	Periodic
)

func (b Boundary) String() string {
	switch b {
	case Open:
		return "open"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("Boundary(%d)", int(b))
	}
}

// Direction selects which neighbors a rank sends to.
type Direction int

const (
	// Unidirectional: rank i sends to i+1..i+d and receives from i-1..i-d.
	Unidirectional Direction = iota
	// Bidirectional: rank i exchanges (sends and receives) with both
	// i-d..i-1 and i+1..i+d.
	Bidirectional
)

func (d Direction) String() string {
	switch d {
	case Unidirectional:
		return "unidirectional"
	case Bidirectional:
		return "bidirectional"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Chain is a one-dimensional process topology.
type Chain struct {
	N     int       // number of ranks
	D     int       // neighbor distance (largest offset communicated with)
	Dir   Direction // unidirectional or bidirectional
	Bound Boundary  // open or periodic
}

var _ Topology = Chain{}

// Ranks returns the number of ranks in the chain.
func (c Chain) Ranks() int { return c.N }

// NewChain validates and builds a chain topology.
func NewChain(n, d int, dir Direction, bound Boundary) (Chain, error) {
	if n <= 0 {
		return Chain{}, fmt.Errorf("topology: need positive rank count, got %d", n)
	}
	if d <= 0 {
		return Chain{}, fmt.Errorf("topology: need positive neighbor distance, got %d", d)
	}
	if bound == Periodic && 2*d >= n && n > 1 {
		// With 2d >= n a periodic shell would wrap onto itself or a rank
		// would talk to the same partner twice; keep the experiments clean.
		return Chain{}, fmt.Errorf("topology: periodic chain of %d ranks cannot support distance %d", n, d)
	}
	return Chain{N: n, D: d, Dir: dir, Bound: bound}, nil
}

// wrap maps an offset rank index into [0, N) for periodic chains; for open
// chains it returns -1 when out of range.
func (c Chain) wrap(i int) int {
	if c.Bound == Periodic {
		return ((i % c.N) + c.N) % c.N
	}
	if i < 0 || i >= c.N {
		return -1
	}
	return i
}

// SendTargets returns the ranks that rank i sends to, in deterministic
// order: ascending positive offsets first (i+1..i+d), then descending
// negative offsets (i-1..i-d) for bidirectional patterns. Off-chain
// partners (open boundaries) are omitted.
func (c Chain) SendTargets(i int) []int {
	c.check(i)
	var out []int
	for off := 1; off <= c.D; off++ {
		if j := c.wrap(i + off); j >= 0 {
			out = append(out, j)
		}
	}
	if c.Dir == Bidirectional {
		for off := 1; off <= c.D; off++ {
			if j := c.wrap(i - off); j >= 0 {
				out = append(out, j)
			}
		}
	}
	return out
}

// RecvSources returns the ranks that rank i receives from, in deterministic
// order: ascending negative offsets first (i-1..i-d), then positive offsets
// for bidirectional patterns.
func (c Chain) RecvSources(i int) []int {
	c.check(i)
	var out []int
	for off := 1; off <= c.D; off++ {
		if j := c.wrap(i - off); j >= 0 {
			out = append(out, j)
		}
	}
	if c.Dir == Bidirectional {
		for off := 1; off <= c.D; off++ {
			if j := c.wrap(i + off); j >= 0 {
				out = append(out, j)
			}
		}
	}
	return out
}

func (c Chain) check(i int) {
	if i < 0 || i >= c.N {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", i, c.N))
	}
}

// HopDistance returns the minimal chain distance between ranks a and b,
// honoring periodicity.
func (c Chain) HopDistance(a, b int) int {
	c.check(a)
	c.check(b)
	d := a - b
	if d < 0 {
		d = -d
	}
	if c.Bound == Periodic && c.N-d < d {
		d = c.N - d
	}
	return d
}

// ForwardOnly reports whether eager waves on the chain travel only
// forward and can wrap: a unidirectional ring.
func (c Chain) ForwardOnly() bool {
	return c.Dir == Unidirectional && c.Bound == Periodic && c.N > 1
}

// DirectedHopDistance returns the chain distance from one rank to
// another following the send direction (increasing rank) only: the
// forward ring distance on periodic chains, -1 for ranks behind the
// source on open chains.
func (c Chain) DirectedHopDistance(from, to int) int {
	c.check(from)
	c.check(to)
	d := to - from
	if c.Bound == Periodic {
		return ((d % c.N) + c.N) % c.N
	}
	if d < 0 {
		return -1
	}
	return d
}

// String renders the chain in the Parse flag syntax ("chain:18",
// "chain:64:d=2:uni:periodic"), omitting options at their defaults, so
// any chain built by Parse re-parses to an equal value and workload
// labels built from topology strings stay machine-readable.
func (c Chain) String() string {
	s := fmt.Sprintf("chain:%d", c.N)
	if c.D != 1 {
		s += fmt.Sprintf(":d=%d", c.D)
	}
	if c.Dir == Unidirectional {
		s += ":uni"
	}
	if c.Bound == Periodic {
		s += ":periodic"
	}
	return s
}

// Placement maps ranks onto the machine hierarchy: cores within sockets
// within nodes. Ranks are assigned in block order (rank 0..PPN-1 on node
// 0, etc.), matching the compact process pinning the paper uses.
type Placement struct {
	CoresPerSocket int
	SocketsPerNode int
	Ranks          int
}

// NewPlacement validates and builds a placement.
func NewPlacement(ranks, coresPerSocket, socketsPerNode int) (Placement, error) {
	if ranks <= 0 || coresPerSocket <= 0 || socketsPerNode <= 0 {
		return Placement{}, fmt.Errorf("topology: invalid placement ranks=%d cores/socket=%d sockets/node=%d",
			ranks, coresPerSocket, socketsPerNode)
	}
	return Placement{CoresPerSocket: coresPerSocket, SocketsPerNode: socketsPerNode, Ranks: ranks}, nil
}

// Socket returns the global socket index of a rank.
func (p Placement) Socket(rank int) int {
	p.check(rank)
	return rank / p.CoresPerSocket
}

// Node returns the node index of a rank.
func (p Placement) Node(rank int) int {
	p.check(rank)
	return rank / (p.CoresPerSocket * p.SocketsPerNode)
}

// SameSocket reports whether two ranks share a socket.
func (p Placement) SameSocket(a, b int) bool { return p.Socket(a) == p.Socket(b) }

// SameNode reports whether two ranks share a node.
func (p Placement) SameNode(a, b int) bool { return p.Node(a) == p.Node(b) }

// Nodes returns the number of (partially) occupied nodes.
func (p Placement) Nodes() int {
	perNode := p.CoresPerSocket * p.SocketsPerNode
	return (p.Ranks + perNode - 1) / perNode
}

func (p Placement) check(rank int) {
	if rank < 0 || rank >= p.Ranks {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, p.Ranks))
	}
}

// SpreadPlacement builds a placement with a fixed number of processes per
// node (PPN) that may be smaller than the node's core count, as in the
// paper's PPN=1 experiment (Fig. 1c). Ranks are assigned round-robin
// across sockets within a node so that PPN=2 uses one core on each socket.
type SpreadPlacement struct {
	PPN            int // processes per node
	CoresPerSocket int
	SocketsPerNode int
	Ranks          int
}

// NewSpreadPlacement validates and builds a spread placement.
func NewSpreadPlacement(ranks, ppn, coresPerSocket, socketsPerNode int) (SpreadPlacement, error) {
	if ranks <= 0 || ppn <= 0 || coresPerSocket <= 0 || socketsPerNode <= 0 {
		return SpreadPlacement{}, fmt.Errorf("topology: invalid spread placement")
	}
	if ppn > coresPerSocket*socketsPerNode {
		return SpreadPlacement{}, fmt.Errorf("topology: PPN %d exceeds node capacity %d",
			ppn, coresPerSocket*socketsPerNode)
	}
	return SpreadPlacement{PPN: ppn, CoresPerSocket: coresPerSocket,
		SocketsPerNode: socketsPerNode, Ranks: ranks}, nil
}

// Node returns the node index of a rank.
func (p SpreadPlacement) Node(rank int) int {
	p.check(rank)
	return rank / p.PPN
}

// Socket returns the global socket index of a rank: local ranks rotate
// across the node's sockets.
func (p SpreadPlacement) Socket(rank int) int {
	p.check(rank)
	local := rank % p.PPN
	return p.Node(rank)*p.SocketsPerNode + local%p.SocketsPerNode
}

// SameNode reports whether two ranks share a node.
func (p SpreadPlacement) SameNode(a, b int) bool { return p.Node(a) == p.Node(b) }

// SameSocket reports whether two ranks share a socket.
func (p SpreadPlacement) SameSocket(a, b int) bool { return p.Socket(a) == p.Socket(b) }

// Nodes returns the number of occupied nodes.
func (p SpreadPlacement) Nodes() int { return (p.Ranks + p.PPN - 1) / p.PPN }

func (p SpreadPlacement) check(rank int) {
	if rank < 0 || rank >= p.Ranks {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, p.Ranks))
	}
}

// Locality classifies the distance class of a rank pair for hierarchical
// communication-cost models.
type Locality int

const (
	IntraSocket Locality = iota
	IntraNode
	InterNode
)

func (l Locality) String() string {
	switch l {
	case IntraSocket:
		return "intra-socket"
	case IntraNode:
		return "intra-node"
	case InterNode:
		return "inter-node"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// Locator resolves rank pairs to a locality class.
type Locator interface {
	SameSocket(a, b int) bool
	SameNode(a, b int) bool
}

// Classify returns the locality class of the pair (a, b).
func Classify(loc Locator, a, b int) Locality {
	switch {
	case loc.SameSocket(a, b):
		return IntraSocket
	case loc.SameNode(a, b):
		return IntraNode
	default:
		return InterNode
	}
}
