package genload

import (
	"slices"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BulkLoop is the bulk-synchronous expansion every structured workload
// shares: per step an optional Delay op (the rank's own delay plus its
// aggregated one-off injections), a Compute op, an Isend to every
// topology send target, an Irecv from every receive source, and a
// Waitall. Ops are immutable values, so Programs boxes each distinct op
// once and lets ranks share the boxes: one Isend/Irecv per (peer,
// step), one Waitall per step, and a Compute equal to the previous
// rank's at the same step reuses that rank's box.
type BulkLoop struct {
	Topo     topology.Topology
	Steps    int
	Bytes    int
	MemBytes float64
	// Injections must lie inside the rank and step range.
	Injections []noise.Injection
	// Fill writes one rank's per-step execution-phase durations into
	// exec and its own delays into delay, which arrives zeroed.
	Fill func(rank int, exec, delay []sim.Time)
}

// Programs builds one exactly sized program per rank. It works rank by
// rank, so each program is written while it is hot in cache (a
// step-major build re-walks every program's tail each step); the
// ranks×steps Isend and Irecv box tables are garbage once it returns.
func (b BulkLoop) Programs() []mpisim.Program {
	n, steps := b.Topo.Ranks(), b.Steps
	// Stable by rank, so injections at one (rank, step) sum in list order.
	inj := slices.Clone(b.Injections)
	slices.SortStableFunc(inj, func(x, y noise.Injection) int { return x.Rank - y.Rank })
	sendBox := make([]mpisim.Op, n*steps) // Isend by To*steps+step
	recvBox := make([]mpisim.Op, n*steps) // Irecv by From*steps+step
	waitBox := make([]mpisim.Op, steps)
	computeBox := make([]mpisim.Op, steps) // the previous rank's Compute
	for s := range waitBox {
		waitBox[s] = mpisim.Waitall{Step: s}
	}
	exec, delay, extra := make([]sim.Time, steps), make([]sim.Time, steps), make([]sim.Time, steps)
	progs := make([]mpisim.Program, n)
	for i := range progs {
		clear(delay)
		clear(extra)
		b.Fill(i, exec, delay)
		for ; len(inj) > 0 && inj[0].Rank == i; inj = inj[1:] {
			extra[inj[0].Step] += inj[0].Duration
		}
		delayed := 0
		for s := range delay {
			if delay[s] += extra[s]; delay[s] > 0 {
				delayed++
			}
		}
		sends, recvs := b.Topo.SendTargets(i), b.Topo.RecvSources(i)
		p := make(mpisim.Program, 0, steps*(len(sends)+len(recvs)+2)+delayed)
		for s := 0; s < steps; s++ {
			if delay[s] > 0 {
				p = append(p, mpisim.Delay{Duration: delay[s], Step: s})
			}
			c := mpisim.Compute{Duration: exec[s], MemBytes: b.MemBytes, Step: s}
			if prev, ok := computeBox[s].(mpisim.Compute); !ok || prev != c {
				computeBox[s] = c
			}
			p = append(p, computeBox[s])
			for _, to := range sends {
				if sendBox[to*steps+s] == nil {
					sendBox[to*steps+s] = mpisim.Isend{To: to, Bytes: b.Bytes, Tag: s}
				}
				p = append(p, sendBox[to*steps+s])
			}
			for _, from := range recvs {
				if recvBox[from*steps+s] == nil {
					recvBox[from*steps+s] = mpisim.Irecv{From: from, Bytes: b.Bytes, Tag: s}
				}
				p = append(p, recvBox[from*steps+s])
			}
			p = append(p, waitBox[s])
		}
		progs[i] = p
	}
	return progs
}
