// Conservative parallel execution: the ranks are cut into contiguous
// shards, each running its own event engine on its own goroutine, and a
// coordinator advances them in bounded windows computed from lookahead
// horizons — the window/barrier variant of the classic null-message
// (Chandy-Misra-Bryant) protocol.
//
// # Why this is safe
//
// The only cross-shard interaction an eligible plan allows is an eager
// message, whose delivery lags its send by at least
//
//	look[i][j] = min over cross-cut sends i->j of (SendOverhead + Transfer)
//
// which is a static lower bound read off the programs and the network
// model. Each round the coordinator polls every shard's next event time
// and computes
//
//	eff[j]  = min(next[j], min_i(eff[i] + look[i][j]))   (min-plus fixpoint)
//	safe[k] = min_{j != k}(eff[j] + look[j][k])
//
// eff[j] lower-bounds the time of any event shard j can still execute —
// including events caused by a chain of not-yet-sent messages through
// idle shards, which is why the fixpoint (and not raw next[] alone) is
// required. safe[k] then lower-bounds the arrival time of any message
// shard k has not seen yet, so k may execute every event up to and
// including safe[k] without risking causality. Lookaheads are strictly
// positive (zero lookahead is a plan ineligibility), so the shard
// holding the globally earliest event always clears its own horizon:
// every round makes progress, and the run terminates exactly when all
// queues drain.
//
// # Why the result is byte-identical
//
// Sharded execution runs the same logical events at the same virtual
// times as the serial engine; only same-time interleavings across ranks
// can differ, and every cross-rank interaction an eligible plan permits
// commutes at equal times: an eager delivery and the matching receive
// posting complete the receive at the same time in either order, Waitall
// completion is a pure watermark check, and per-(source, tag) FIFO is
// preserved because one sender's messages leave in send order and the
// coordinator stamps each round's deliveries into the destination queue
// in (arrival time, source shard, send order) order before any of them
// can execute. Anything that does not commute — rendezvous handshakes
// across a cut, finite eager buffers (the receiver's match releases the
// sender's buffer slot at match time), bandwidth charging on a remote
// socket, a noise injector that cannot be cloned per shard — makes the
// plan ineligible and the run falls back to the serial engine, which is
// byte-identical by definition. See docs/ARCHITECTURE.md, "Parallel
// DES".
package mpisim

import (
	"fmt"
	"sort"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// outMsg is a cross-shard eager message parked in its sender shard's
// outbox until the coordinator routes it at the next horizon.
type outMsg struct {
	from, to, tag, bytes int
	arriveAt             sim.Time
}

// waitRec is one completed Waitall interval buffered for the
// coordinator's merged OnWait stream.
type waitRec struct {
	rank, step int
	start, end sim.Time
}

// shardLink is a shard's mailbox to the coordinator. The owning shard
// goroutine appends during its window; the coordinator drains between
// windows (the barrier orders the accesses).
type shardLink struct {
	outbox []outMsg
	waits  []waitRec
}

// shardPlan is an eligible partition: bounds (len shards+1, ascending,
// bounds[0]=0, bounds[last]=Ranks), a rank-to-shard lookup for routing,
// and the pairwise lookahead matrix (sim.Infinity = no traffic i->j).
type shardPlan struct {
	bounds  []int
	shardIx []int32
	look    [][]sim.Time
}

// ShardDecision reports how Run executes a configuration: whether the
// lockstep solver computes it, and the shard plan the event engine would
// use — the partition bounds when the parallel plan is eligible, or the
// reason the engine runs serially. Exposed for diagnostics and tests;
// Run makes the same decisions internally.
type ShardDecision struct {
	// Bounds holds the shard boundaries (shard k owns ranks
	// [Bounds[k], Bounds[k+1])); nil when the engine would run serially.
	Bounds []int
	// Reason is non-empty exactly when the engine would run serially.
	Reason string
	// Lockstep reports that the lockstep solver computes the run, so
	// neither the serial engine nor the shard driver runs.
	Lockstep bool
	// EngineReason says why the event engine runs; it is empty exactly
	// when Lockstep is set.
	EngineReason string
}

// PlanShards validates the configuration and reports the execution plan
// Run would use for it.
func PlanShards(cfg Config, programs []Program) (ShardDecision, error) {
	_, _, reason, err := validate(cfg, programs, checkLockstep)
	if err != nil {
		return ShardDecision{}, err
	}
	dec := ShardDecision{Lockstep: reason == "", EngineReason: reason}
	if cfg.Shards <= 0 {
		dec.Reason = "serial requested (Shards=0)"
		return dec, nil
	}
	plan, why := planShards(cfg, programs)
	if plan == nil {
		dec.Reason = why
		return dec, nil
	}
	dec.Bounds = plan.bounds
	return dec, nil
}

// planShards builds the partition and checks eligibility. It returns a
// nil plan and the reason when the configuration must run serially.
// Callers have already validated.
func planShards(cfg Config, programs []Program) (*shardPlan, string) {
	n := cfg.Ranks
	s := cfg.Shards
	if s > n {
		s = n
	}
	if s <= 1 {
		return singleShardPlan(n), ""
	}

	// Cut positions: anywhere, unless sockets are in play — then a cut
	// inside a socket's rank run would split one bandwidth resource
	// across two engines, so cuts snap to socket-run starts.
	var allowed []int
	if socketsPinned(cfg, programs) {
		starts, ok := socketRuns(cfg, n)
		if !ok {
			return nil, "socket placement is not contiguous in rank order"
		}
		allowed = starts[1:] // position 0 is not a cut
	}
	bounds := cutBounds(n, s, allowed)
	s = len(bounds) - 1
	if s == 1 {
		return singleShardPlan(n), ""
	}

	// With more than one shard the per-shard goroutines each sample the
	// noise injector; a shared injector with lazy per-rank state would
	// race. NoiseFactory clones it per shard.
	if cfg.Noise != nil && cfg.NoiseFactory == nil {
		return nil, "noise injector cannot be cloned per shard (set NoiseFactory)"
	}

	shardIx := make([]int32, n)
	for k := 0; k < s; k++ {
		for r := bounds[k]; r < bounds[k+1]; r++ {
			shardIx[r] = int32(k)
		}
	}
	look := make([][]sim.Time, s)
	for i := range look {
		look[i] = make([]sim.Time, s)
		for j := range look[i] {
			look[i][j] = sim.Infinity
		}
	}
	charge := cfg.ChargeCommBandwidth && cfg.SocketOf != nil && cfg.SocketBandwidth > 0
	for from, p := range programs {
		si := shardIx[from]
		for _, op := range p {
			snd, ok := op.(Isend)
			if !ok {
				continue
			}
			sj := shardIx[snd.To]
			if si == sj {
				continue
			}
			if cfg.Net.ProtocolFor(from, snd.To, snd.Bytes) != netmodel.Eager {
				return nil, fmt.Sprintf("rendezvous message %d->%d crosses a shard cut", from, snd.To)
			}
			if cfg.EagerMaxOutstanding > 0 {
				return nil, "finite eager buffers (EagerMaxOutstanding) with cross-shard traffic"
			}
			if charge {
				return nil, "communication bandwidth charging with cross-shard traffic"
			}
			la := cfg.Net.SendOverhead(from, snd.To, snd.Bytes) + cfg.Net.Transfer(from, snd.To, snd.Bytes)
			if la <= 0 {
				return nil, fmt.Sprintf("zero lookahead on cross-shard message %d->%d", from, snd.To)
			}
			if la < look[si][sj] {
				look[si][sj] = la
			}
		}
	}
	return &shardPlan{bounds: bounds, shardIx: shardIx, look: look}, ""
}

// singleShardPlan covers all ranks with one shard: trivially eligible
// (no cross-shard interactions exist), and it exercises the parallel
// driver end to end, which is what the shards=1 bench baseline measures.
func singleShardPlan(n int) *shardPlan {
	return &shardPlan{
		bounds: []int{0, n},
		look:   [][]sim.Time{{sim.Infinity}},
	}
}

// socketsPinned reports whether the run will materialize socket
// bandwidth state (memory-bound phases, or DMA charging of messages),
// in which case shard cuts must respect socket boundaries.
func socketsPinned(cfg Config, programs []Program) bool {
	if cfg.SocketOf == nil {
		return false
	}
	if cfg.ChargeCommBandwidth && cfg.SocketBandwidth > 0 {
		return true
	}
	for _, p := range programs {
		for _, op := range p {
			if c, ok := op.(Compute); ok && c.MemBytes > 0 {
				return true
			}
		}
	}
	return false
}

// socketRuns returns the start index of each contiguous socket run, or
// ok=false when a socket's ranks are not contiguous (such a socket can
// never be pinned to one shard).
func socketRuns(cfg Config, n int) (starts []int, ok bool) {
	starts = []int{0}
	seen := map[int]bool{}
	cur := cfg.SocketOf(0)
	seen[cur] = true
	for r := 1; r < n; r++ {
		id := cfg.SocketOf(r)
		if id == cur {
			continue
		}
		if seen[id] {
			return nil, false
		}
		seen[id] = true
		cur = id
		starts = append(starts, r)
	}
	return starts, true
}

// cutBounds places s-1 cuts at the ideal even split, snapped to the
// allowed positions when given (nil = cut anywhere). Cuts that collapse
// onto each other or the ends are dropped, so the effective shard count
// can come out lower than requested.
func cutBounds(n, s int, allowed []int) []int {
	bounds := make([]int, 1, s+1)
	for i := 1; i < s; i++ {
		c := i * n / s
		if allowed != nil {
			c = nearestCut(allowed, c)
		}
		if c > bounds[len(bounds)-1] && c < n {
			bounds = append(bounds, c)
		}
	}
	return append(bounds, n)
}

// nearestCut returns the allowed position closest to ideal (ties go
// low), or 0 when there are no allowed positions.
func nearestCut(allowed []int, ideal int) int {
	if len(allowed) == 0 {
		return 0
	}
	i := sort.SearchInts(allowed, ideal)
	if i == 0 {
		return allowed[0]
	}
	if i == len(allowed) {
		return allowed[i-1]
	}
	if allowed[i]-ideal < ideal-allowed[i-1] {
		return allowed[i]
	}
	return allowed[i-1]
}

// runSharded executes a Shards>0 run: the eligible parallel plan, or
// the serial engine when planShards declines (byte-identical either
// way). The caller has already validated.
func runSharded(cfg Config, programs []Program, shapes []rankShape) (*Result, error) {
	plan, _ := planShards(cfg, programs)
	if plan == nil {
		return runSerial(cfg, programs, shapes)
	}
	s := len(plan.bounds) - 1

	sims := make([]*simulation, s)
	for k := range sims {
		scfg := cfg
		if s > 1 && cfg.NoiseFactory != nil {
			scfg.Noise = cfg.NoiseFactory()
		}
		sims[k] = newRangedSimulation(scfg, programs, shapes, plan.bounds[k], plan.bounds[k+1], &shardLink{})
	}

	// Shard 0 runs inline on the coordinator goroutine; the rest get a
	// persistent worker each. The run/done channel pair is the barrier
	// that also publishes the shard's memory to the coordinator between
	// windows.
	runCh := make([]chan sim.Time, s)
	doneCh := make([]chan struct{}, s)
	for k := 1; k < s; k++ {
		rc := make(chan sim.Time, 1)
		dc := make(chan struct{}, 1)
		runCh[k], doneCh[k] = rc, dc
		go func(sm *simulation) {
			for limit := range rc {
				sm.engine.RunUntil(limit)
				dc <- struct{}{}
			}
		}(sims[k])
	}

	// Round scratch, reused so the coordinator allocates nothing in
	// steady state.
	next := make([]sim.Time, s)
	eff := make([]sim.Time, s)
	safe := make([]sim.Time, s)
	ran := make([]bool, s)
	inbox := make([][]outMsg, s)
	var wbuf []waitRec

	for {
		live := false
		for k, sm := range sims {
			if t, ok := sm.engine.NextEventTime(); ok {
				next[k] = t
				live = true
			} else {
				next[k] = sim.Infinity
			}
		}
		if !live {
			break
		}

		// eff[j] = min(next[j], min_i(eff[i] + look[i][j])): the earliest
		// event shard j can still execute, through any chain of future
		// cross-shard messages (see the file comment).
		copy(eff, next)
		for changed := true; changed; {
			changed = false
			for i := 0; i < s; i++ {
				if eff[i] >= sim.Infinity {
					continue
				}
				for j := 0; j < s; j++ {
					if la := plan.look[i][j]; la < sim.Infinity {
						if v := eff[i] + la; v < eff[j] {
							eff[j] = v
							changed = true
						}
					}
				}
			}
		}
		for k := 0; k < s; k++ {
			safe[k] = sim.Infinity
			for j := 0; j < s; j++ {
				if la := plan.look[j][k]; la < sim.Infinity && eff[j] < sim.Infinity {
					if v := eff[j] + la; v < safe[k] {
						safe[k] = v
					}
				}
			}
		}

		// Execute the window: every shard with work inside its horizon.
		for k := 1; k < s; k++ {
			ran[k] = next[k] <= safe[k]
			if ran[k] {
				runCh[k] <- safe[k]
			}
		}
		if next[0] <= safe[0] {
			sims[0].engine.RunUntil(safe[0])
		}
		for k := 1; k < s; k++ {
			if ran[k] {
				<-doneCh[k]
			}
		}

		// Route the round's cross-shard messages, source shards in index
		// order, each destination's batch in arrival order (stable, so
		// per-sender FIFO survives equal arrivals). Every arrival is at
		// or after the destination's horizon, so never in its past.
		for _, src := range sims {
			sh := src.shard
			for _, om := range sh.outbox {
				d := plan.shardIx[om.to]
				inbox[d] = append(inbox[d], om)
			}
			sh.outbox = sh.outbox[:0]
		}
		for k, sm := range sims {
			msgs := inbox[k]
			if len(msgs) == 0 {
				continue
			}
			sort.SliceStable(msgs, func(a, b int) bool { return msgs[a].arriveAt < msgs[b].arriveAt })
			for _, om := range msgs {
				sm.engine.ScheduleCall(om.arriveAt, deliverEagerCall,
					sm.newMsg(om.from, om.to, om.tag, om.bytes, om.arriveAt))
			}
			inbox[k] = msgs[:0]
		}

		// Fire the round's buffered wait intervals on the coordinator
		// goroutine, merged in (end, start, rank, step) order.
		if cfg.OnWait != nil {
			wbuf = wbuf[:0]
			for _, sm := range sims {
				wbuf = append(wbuf, sm.shard.waits...)
				sm.shard.waits = sm.shard.waits[:0]
			}
			sort.Slice(wbuf, func(a, b int) bool {
				wa, wb := wbuf[a], wbuf[b]
				if wa.end != wb.end {
					return wa.end < wb.end
				}
				if wa.start != wb.start {
					return wa.start < wb.start
				}
				if wa.rank != wb.rank {
					return wa.rank < wb.rank
				}
				return wa.step < wb.step
			})
			for _, w := range wbuf {
				cfg.OnWait(w.rank, w.step, w.start, w.end)
			}
		}
	}
	for k := 1; k < s; k++ {
		close(runCh[k])
	}

	var end sim.Time
	var events uint64
	for _, sm := range sims {
		if t := sm.engine.Now(); t > end {
			end = t
		}
		events += sm.engine.Executed()
	}
	return assembleResult(cfg, sims, end, events)
}
