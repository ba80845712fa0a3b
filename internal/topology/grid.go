package topology

import (
	"fmt"
	"strings"
)

// Grid is an N-dimensional Cartesian grid (or torus, per dimension) of
// processes — the topology behind multi-dimensional halo-exchange
// decompositions. Ranks are laid out in row-major order: the last
// dimension varies fastest, so a 2-D grid with extents [ny, nx] places
// rank i at row i/nx, column i%nx.
//
// Each rank exchanges with its neighbors at offsets 1..D along every
// dimension separately (the standard star stencil; diagonal neighbors
// are not partners). Unidirectional grids send only toward increasing
// coordinates, mirroring the unidirectional chain. A dimension of
// extent 1 is degenerate and contributes no partners.
type Grid struct {
	// Extents holds the per-dimension sizes; len(Extents) is the grid's
	// dimensionality and their product the rank count.
	Extents []int
	// D is the neighbor distance along each dimension (the paper's d).
	D int
	// Dir selects unidirectional (toward increasing coordinates) or
	// bidirectional exchange.
	Dir Direction
	// Bounds holds the per-dimension boundary: Open truncates at the
	// edge, Periodic closes the dimension into a ring (torus).
	Bounds []Boundary
}

var (
	_ Topology = Grid{}
	_ Directed = Grid{}
	_ Directed = Chain{}
)

// NewGrid validates and builds a grid topology. bounds must hold either
// one boundary (applied to every dimension) or one per dimension.
func NewGrid(extents []int, d int, dir Direction, bounds ...Boundary) (Grid, error) {
	if len(extents) == 0 {
		return Grid{}, fmt.Errorf("topology: grid needs at least one dimension")
	}
	for k, e := range extents {
		if e <= 0 {
			return Grid{}, fmt.Errorf("topology: grid dimension %d has non-positive extent %d", k, e)
		}
	}
	if d <= 0 {
		return Grid{}, fmt.Errorf("topology: need positive neighbor distance, got %d", d)
	}
	var bs []Boundary
	switch len(bounds) {
	case 0:
		bs = make([]Boundary, len(extents)) // all Open
	case 1:
		bs = make([]Boundary, len(extents))
		for k := range bs {
			bs[k] = bounds[0]
		}
	case len(extents):
		bs = append([]Boundary(nil), bounds...)
	default:
		return Grid{}, fmt.Errorf("topology: grid with %d dimensions got %d boundaries",
			len(extents), len(bounds))
	}
	for k, e := range extents {
		// Same cleanliness rule as the periodic chain: a shell must not
		// wrap onto itself or reach a partner twice.
		if bs[k] == Periodic && e > 1 && 2*d >= e {
			return Grid{}, fmt.Errorf("topology: periodic grid dimension %d of extent %d cannot support distance %d", k, e, d)
		}
	}
	return Grid{Extents: append([]int(nil), extents...), D: d, Dir: dir, Bounds: bs}, nil
}

// Torus2D builds the canonical 2-D halo-exchange topology: an ny x nx
// fully periodic bidirectional torus with neighbor distance 1.
func Torus2D(ny, nx int) (Grid, error) {
	return NewGrid([]int{ny, nx}, 1, Bidirectional, Periodic)
}

// Torus3D builds an nz x ny x nx fully periodic bidirectional torus
// with neighbor distance 1.
func Torus3D(nz, ny, nx int) (Grid, error) {
	return NewGrid([]int{nz, ny, nx}, 1, Bidirectional, Periodic)
}

// Ranks returns the number of ranks (the product of the extents).
func (g Grid) Ranks() int {
	n := 1
	for _, e := range g.Extents {
		n *= e
	}
	return n
}

// Coords maps a rank to its per-dimension coordinates (row-major, last
// dimension fastest).
func (g Grid) Coords(i int) []int { return g.coords(make([]int, len(g.Extents)), i) }

// coords writes rank i's coordinates into c, one entry per dimension.
func (g Grid) coords(c []int, i int) []int {
	g.check(i)
	for k := len(g.Extents) - 1; k >= 0; k-- {
		c[k] = i % g.Extents[k]
		i /= g.Extents[k]
	}
	return c
}

// Index maps per-dimension coordinates back to the rank number.
func (g Grid) Index(coords []int) int {
	if len(coords) != len(g.Extents) {
		panic(fmt.Sprintf("topology: %d coordinates for %d-dimensional grid", len(coords), len(g.Extents)))
	}
	i := 0
	for k, c := range coords {
		if c < 0 || c >= g.Extents[k] {
			panic(fmt.Sprintf("topology: coordinate %d out of range [0,%d)", c, g.Extents[k]))
		}
		i = i*g.Extents[k] + c
	}
	return i
}

// Center returns the rank nearest the grid's center — the natural
// injection site for symmetric wave experiments.
func (g Grid) Center() int {
	c := make([]int, len(g.Extents))
	for k, e := range g.Extents {
		c[k] = e / 2
	}
	return g.Index(c)
}

// neighbor returns the rank at offset off along dimension k from coords,
// or -1 when the offset leaves an open dimension. Degenerate dimensions
// (extent 1) have no neighbors.
func (g Grid) neighbor(coords []int, k, off int) int {
	e := g.Extents[k]
	if e == 1 {
		return -1
	}
	x := coords[k] + off
	if g.Bounds[k] == Periodic {
		x = ((x % e) + e) % e
	} else if x < 0 || x >= e {
		return -1
	}
	old := coords[k]
	coords[k] = x
	j := g.Index(coords)
	coords[k] = old
	return j
}

// SendTargets returns the ranks that rank i sends to, in deterministic
// order: for each dimension in turn the positive offsets 1..D, then —
// for bidirectional grids — for each dimension the negative offsets
// 1..D. A 1-D grid therefore matches Chain's partner order exactly.
func (g Grid) SendTargets(i int) []int { return g.partners(i, 1) }

// RecvSources returns the ranks that rank i receives from, in
// deterministic order: for each dimension the negative offsets 1..D,
// then — for bidirectional grids — the positive offsets.
func (g Grid) RecvSources(i int) []int { return g.partners(i, -1) }

// partners lists rank i's neighbors at offsets sign*1..sign*D along
// each dimension, then — for bidirectional grids — at the opposite
// offsets. It allocates only the result, which is nil when empty.
func (g Grid) partners(i, sign int) []int {
	var buf [4]int
	c := buf[:]
	if len(g.Extents) > len(buf) {
		c = make([]int, len(g.Extents))
	}
	coords := g.coords(c[:len(g.Extents)], i)
	passes := 1
	if g.Dir == Bidirectional {
		passes = 2
	}
	out := make([]int, 0, passes*len(g.Extents)*g.D)
	for ; passes > 0; passes-- {
		for k := range g.Extents {
			for off := 1; off <= g.D; off++ {
				if j := g.neighbor(coords, k, sign*off); j >= 0 {
					out = append(out, j)
				}
			}
		}
		sign = -sign
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// HopDistance returns the Manhattan distance between two ranks on the
// lattice, with per-dimension wrap-around on periodic dimensions. Like
// Chain.HopDistance it is the index metric of the topology, independent
// of the neighbor distance D and the direction; idle-wave fronts on a
// torus expand as balls of this metric.
func (g Grid) HopDistance(a, b int) int {
	ca, cb := g.Coords(a), g.Coords(b)
	total := 0
	for k, e := range g.Extents {
		d := ca[k] - cb[k]
		if d < 0 {
			d = -d
		}
		if g.Bounds[k] == Periodic && e-d < d {
			d = e - d
		}
		total += d
	}
	return total
}

// DirectedHopDistance returns the Manhattan distance from one rank to
// another following the send direction (increasing coordinates) only:
// per dimension the forward ring distance on periodic dimensions, and
// -1 (unreachable) when an open dimension would require a backward
// step.
func (g Grid) DirectedHopDistance(from, to int) int {
	cf, ct := g.Coords(from), g.Coords(to)
	total := 0
	for k, e := range g.Extents {
		d := ct[k] - cf[k]
		if g.Bounds[k] == Periodic {
			d = ((d % e) + e) % e
		} else if d < 0 {
			return -1
		}
		total += d
	}
	return total
}

// ForwardOnly reports whether eager waves on the grid travel only
// forward and can wrap: a unidirectional grid with a periodic
// dimension.
func (g Grid) ForwardOnly() bool {
	return g.Dir == Unidirectional && g.Wraps()
}

// Wraps reports whether any non-degenerate dimension is periodic —
// i.e. whether a unidirectional wave can wrap around the topology.
func (g Grid) Wraps() bool {
	for k, b := range g.Bounds {
		if b == Periodic && g.Extents[k] > 1 {
			return true
		}
	}
	return false
}

func (g Grid) check(i int) {
	if i < 0 || i >= g.Ranks() {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", i, g.Ranks()))
	}
}

// String renders the grid in the Parse flag syntax, omitting options at
// their defaults: a fully periodic grid is "torus:16x16", a fully open
// one "grid:8x4", so any grid built by Parse re-parses to an equal
// value. Mixed per-dimension boundaries (only constructible directly,
// not via Parse) fall back to listing the boundaries per dimension.
func (g Grid) String() string {
	ext := make([]string, len(g.Extents))
	for k, e := range g.Extents {
		ext[k] = fmt.Sprint(e)
	}
	allEqual := true
	for _, b := range g.Bounds {
		if b != g.Bounds[0] {
			allEqual = false
		}
	}
	kind := "grid"
	if allEqual && g.Bounds[0] == Periodic {
		kind = "torus"
	}
	s := kind + ":" + strings.Join(ext, "x")
	if g.D != 1 {
		s += fmt.Sprintf(":d=%d", g.D)
	}
	if g.Dir == Unidirectional {
		s += ":uni"
	}
	if !allEqual {
		parts := make([]string, len(g.Bounds))
		for k, b := range g.Bounds {
			parts[k] = b.String()
		}
		s += ":" + strings.Join(parts, ",")
	}
	return s
}
