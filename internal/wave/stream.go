package wave

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// FrontTracker tracks an idle-wave front incrementally from a stream of
// completed wait intervals (mpisim's Config.OnWait), instead of scanning
// a fully buffered trace afterwards like TrackFront. Its state is one
// first-arrival sample per reached rank plus a per-shell minimum — the
// front itself, not the rank x step history — so a 10^5-rank run can
// extract its wave front with the trace recorder switched off entirely.
//
// Fed every wait interval of a run in completion order, the tracker
// produces exactly the Front that TrackFront (or TrackFrontDirected,
// for the directed variant) would extract from the recorded trace:
// per rank, wait segments complete in time order, so the first observed
// qualifying interval is the first qualifying segment a trace scan
// would find, and zero-length intervals — which the recorder drops —
// are never emitted by the simulator's wait stream.
type FrontTracker struct {
	source    int
	threshold sim.Time
	hops      []int // per rank; -1 = not tracked (source, or unreachable)
	seen      []bool
	samples   []FrontSample
	shells    []sim.Time // first arrival per hop shell; -1 = not reached
	reach     int
}

// NewFrontTracker tracks the front of a wave emanating from source using
// the topology's symmetric hop metric, matching TrackFront: a rank's
// first wait interval longer than threshold is its front arrival; the
// source rank itself is excluded.
func NewFrontTracker(topo topology.Topology, source int, threshold sim.Time) *FrontTracker {
	t := newTracker(topo.Ranks(), source, threshold)
	for r := range t.hops {
		if r != source {
			t.hops[r] = topo.HopDistance(source, r)
		}
	}
	return t
}

// NewDirectedFrontTracker tracks a wave that travels only in the
// topology's send direction, matching TrackFrontDirected: hop distance
// is the directed metric, and ranks unreachable along the send
// direction are skipped.
func NewDirectedFrontTracker(topo topology.Directed, source int, threshold sim.Time) *FrontTracker {
	t := newTracker(topo.Ranks(), source, threshold)
	for r := range t.hops {
		if r != source {
			t.hops[r] = topo.DirectedHopDistance(source, r)
		}
	}
	return t
}

func newTracker(ranks, source int, threshold sim.Time) *FrontTracker {
	t := &FrontTracker{
		source:    source,
		threshold: threshold,
		hops:      make([]int, ranks),
		seen:      make([]bool, ranks),
	}
	for r := range t.hops {
		t.hops[r] = -1
	}
	return t
}

// Observe feeds one completed wait interval. The signature matches
// mpisim's Config.OnWait, so a tracker method value plugs in directly:
//
//	cfg.OnWait = tracker.Observe
//
// Intervals of a rank must arrive in time order (which an OnWait stream
// guarantees); ranks interleave freely.
func (t *FrontTracker) Observe(rank, step int, start, end sim.Time) {
	if rank < 0 || rank >= len(t.seen) || t.seen[rank] {
		return
	}
	if end-start <= t.threshold {
		return
	}
	t.seen[rank] = true
	h := t.hops[rank]
	if h < 0 {
		return // source rank, or unreachable along the directed metric
	}
	t.samples = append(t.samples, FrontSample{
		Rank:      rank,
		Hops:      h,
		Arrival:   start,
		Amplitude: end - start,
	})
	for len(t.shells) <= h {
		t.shells = append(t.shells, -1)
	}
	if t.shells[h] < 0 || start < t.shells[h] {
		t.shells[h] = start
	}
	if h > t.reach {
		t.reach = h
	}
}

// Samples returns the number of front arrivals recorded so far.
func (t *FrontTracker) Samples() int { return len(t.samples) }

// Reach returns the maximum hop distance the front has arrived at.
func (t *FrontTracker) Reach() int { return t.reach }

// ShellArrivals returns the front's first arrival time per hop-distance
// shell, indexed by hop count — the same shape as Front.ShellArrivals:
// index 0 (the source's own shell) is zero-valued, shells the front
// never reached hold -1.
func (t *FrontTracker) ShellArrivals() []sim.Time {
	out := make([]sim.Time, t.reach+1)
	copy(out, t.shells)
	if len(out) > 0 && out[0] < 0 {
		out[0] = 0
	}
	return out
}

// Front returns the tracked front, with samples ordered by (hops, rank)
// exactly as TrackFront orders them.
func (t *FrontTracker) Front() Front {
	f := Front{Source: t.source, Samples: append([]FrontSample(nil), t.samples...)}
	sort.Slice(f.Samples, func(i, j int) bool {
		if f.Samples[i].Hops != f.Samples[j].Hops {
			return f.Samples[i].Hops < f.Samples[j].Hops
		}
		return f.Samples[i].Rank < f.Samples[j].Rank
	})
	return f
}
