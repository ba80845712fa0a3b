package genload

import (
	"fmt"
	"strings"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

// JobMix interleaves several workloads over disjoint, contiguous rank
// blocks of one simulation — the open-system model of co-running jobs
// sharing a machine. Part k occupies the ranks
// [offset_k, offset_k + ranks_k); its programs are rewritten with the
// block offset so every part communicates only within its own block.
// The mix's topology is the Blocks composite: the part metric within a
// block, unreachable (-1) across blocks.
type JobMix struct {
	// Parts are the co-running workloads, in rank-block order.
	Parts []Part
	// Injections are one-off delays addressed by global (mix-level)
	// rank; Programs routes each to the part owning that rank, which
	// must accept injections.
	Injections []noise.Injection
}

// injectablePart matches parts that accept extra one-off delays
// (structurally identical to workload.Injectable).
type injectablePart interface {
	WithInjections(...noise.Injection) Part
}

// Validate checks every part and the injection addressing.
func (m JobMix) Validate() error {
	if len(m.Parts) == 0 {
		return fmt.Errorf("genload: job mix needs at least one part")
	}
	total := 0
	for i, p := range m.Parts {
		if p == nil {
			return fmt.Errorf("genload: job mix part %d is nil", i)
		}
		if _, nested := p.(JobMix); nested {
			return fmt.Errorf("genload: job mixes do not nest; flatten part %d into the outer mix", i)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("genload: job mix part %d: %w", i, err)
		}
		topo, err := p.Topology()
		if err != nil {
			return fmt.Errorf("genload: job mix part %d: %w", i, err)
		}
		if topo == nil {
			return fmt.Errorf("genload: job mix part %d has no topology; only structured workloads mix", i)
		}
		total += topo.Ranks()
	}
	for _, inj := range m.Injections {
		if inj.Rank < 0 || inj.Rank >= total {
			return fmt.Errorf("genload: injection rank %d out of range [0,%d)", inj.Rank, total)
		}
		if !sim.Positive(inj.Duration) {
			return fmt.Errorf("genload: non-positive or non-finite injection duration %v", inj.Duration)
		}
	}
	return nil
}

// partTopos resolves every part's topology, in order.
func (m JobMix) partTopos() ([]topology.Topology, error) {
	topos := make([]topology.Topology, len(m.Parts))
	for i, p := range m.Parts {
		t, err := p.Topology()
		if err != nil {
			return nil, fmt.Errorf("genload: job mix part %d: %w", i, err)
		}
		if t == nil {
			return nil, fmt.Errorf("genload: job mix part %d has no topology", i)
		}
		topos[i] = t
	}
	return topos, nil
}

// Topology returns the Blocks composite over the parts' topologies.
func (m JobMix) Topology() (topology.Topology, error) {
	topos, err := m.partTopos()
	if err != nil {
		return nil, err
	}
	return Blocks{Parts: topos}, nil
}

// Delays lists every part's delays shifted to global ranks, plus the
// mix-level injections.
func (m JobMix) Delays() []noise.Injection {
	topos, err := m.partTopos()
	if err != nil {
		return m.Injections
	}
	var out []noise.Injection
	off := 0
	for i, p := range m.Parts {
		for _, d := range p.Delays() {
			d.Rank += off
			out = append(out, d)
		}
		off += topos[i].Ranks()
	}
	return append(out, m.Injections...)
}

// WithInjections returns a copy carrying extra global-rank delays.
func (m JobMix) WithInjections(inj ...noise.Injection) Part {
	out := make([]noise.Injection, 0, len(m.Injections)+len(inj))
	out = append(out, m.Injections...)
	m.Injections = append(out, inj...)
	m.Parts = append([]Part(nil), m.Parts...)
	return m
}

// String renders the mix in the Parse flag syntax: the parts' own
// spellings with ':' replaced by '/', joined with '+'
// ("mix:bulk/18+gen/8/steps=24/phase=exp/3ms/seed=1"). Parts without a
// spelling render as "?" and do not re-parse.
func (m JobMix) String() string {
	parts := make([]string, len(m.Parts))
	for i, p := range m.Parts {
		s, ok := p.(fmt.Stringer)
		if !ok {
			parts[i] = "?"
			continue
		}
		parts[i] = strings.ReplaceAll(s.String(), ":", "/")
	}
	return "mix:" + strings.Join(parts, "+")
}

// Programs builds every part's programs and rewrites their
// communication targets with the part's block offset. Mix-level
// injections are routed to the owning part first, so they aggregate
// into the part's own delay ops.
func (m JobMix) Programs() ([]mpisim.Program, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	topos, err := m.partTopos()
	if err != nil {
		return nil, err
	}
	offs := make([]int, len(m.Parts)+1)
	for i, t := range topos {
		offs[i+1] = offs[i] + t.Ranks()
	}

	parts := m.Parts
	if len(m.Injections) > 0 {
		parts = append([]Part(nil), m.Parts...)
		perPart := make([][]noise.Injection, len(parts))
		for _, inj := range m.Injections {
			k := 0
			for inj.Rank >= offs[k+1] {
				k++
			}
			local := inj
			local.Rank -= offs[k]
			perPart[k] = append(perPart[k], local)
		}
		for k, extra := range perPart {
			if len(extra) == 0 {
				continue
			}
			ip, ok := parts[k].(injectablePart)
			if !ok {
				return nil, fmt.Errorf("genload: job mix part %d does not accept injected delays", k)
			}
			parts[k] = ip.WithInjections(extra...)
		}
	}

	out := make([]mpisim.Program, 0, offs[len(offs)-1])
	for k, p := range parts {
		progs, err := p.Programs()
		if err != nil {
			return nil, fmt.Errorf("genload: job mix part %d: %w", k, err)
		}
		for _, prog := range progs {
			shifted, err := shiftProgram(prog, offs[k])
			if err != nil {
				return nil, fmt.Errorf("genload: job mix part %d: %w", k, err)
			}
			out = append(out, shifted)
		}
	}
	return out, nil
}

// shiftProgram rewrites a program's communication partners by the block
// offset. Only the bulk-style op set is rewritable; an unknown op type
// is an error (it might carry rank references the shift cannot see).
func shiftProgram(p mpisim.Program, off int) (mpisim.Program, error) {
	if off == 0 {
		return p, nil
	}
	out := make(mpisim.Program, len(p))
	for i, op := range p {
		switch o := op.(type) {
		case mpisim.Isend:
			o.To += off
			out[i] = o
		case mpisim.Irecv:
			o.From += off
			out[i] = o
		case mpisim.Compute, mpisim.Delay, mpisim.Waitall:
			out[i] = op
		default:
			return nil, fmt.Errorf("cannot shift op %T into a rank block", op)
		}
	}
	return out, nil
}

// Blocks is the composite topology of a job mix: each part keeps its
// own structure on a contiguous rank block, and blocks do not
// communicate. HopDistance across blocks is -1 (unreachable), the same
// convention Directed metrics use for unreachable ranks; shell and
// front analytics skip negative distances.
type Blocks struct {
	Parts []topology.Topology
}

// offsets returns the cumulative block offsets (len(Parts)+1 entries).
func (b Blocks) offsets() []int {
	offs := make([]int, len(b.Parts)+1)
	for i, t := range b.Parts {
		offs[i+1] = offs[i] + t.Ranks()
	}
	return offs
}

// block locates the part owning a global rank, returning the part index
// and the block's base offset; ok is false when the rank is out of
// range.
func (b Blocks) block(rank int) (part, base int, ok bool) {
	if rank < 0 {
		return 0, 0, false
	}
	off := 0
	for i, t := range b.Parts {
		n := t.Ranks()
		if rank < off+n {
			return i, off, true
		}
		off += n
	}
	return 0, 0, false
}

// Ranks returns the total rank count.
func (b Blocks) Ranks() int {
	n := 0
	for _, t := range b.Parts {
		n += t.Ranks()
	}
	return n
}

// SendTargets returns the owning part's targets shifted to global ranks.
func (b Blocks) SendTargets(i int) []int {
	part, base, ok := b.block(i)
	if !ok {
		return nil
	}
	return shiftRanks(b.Parts[part].SendTargets(i-base), base)
}

// RecvSources returns the owning part's sources shifted to global ranks.
func (b Blocks) RecvSources(i int) []int {
	part, base, ok := b.block(i)
	if !ok {
		return nil
	}
	return shiftRanks(b.Parts[part].RecvSources(i-base), base)
}

// HopDistance returns the owning part's metric within a block and -1
// across blocks (no path exists between co-running jobs).
func (b Blocks) HopDistance(a, c int) int {
	pa, base, oka := b.block(a)
	pc, _, okc := b.block(c)
	if !oka || !okc || pa != pc {
		return -1
	}
	return b.Parts[pa].HopDistance(a-base, c-base)
}

// String labels the composite for reports.
func (b Blocks) String() string {
	parts := make([]string, len(b.Parts))
	for i, t := range b.Parts {
		parts[i] = t.String()
	}
	return "blocks(" + strings.Join(parts, " + ") + ")"
}

func shiftRanks(rs []int, off int) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r + off
	}
	return out
}

var _ topology.Topology = Blocks{}
