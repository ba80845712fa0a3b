// The lockstep solver: a bulk-synchronous run computed step by step from
// the exact max-plus recurrence its timing obeys, with no event queue, no
// matching lists and no request state. Run sends every eligible run here
// and every other run to the event engine; the two produce identical
// results (see the package comment, "Lockstep solver", and
// lockstep_test.go, which compares them bit for bit).
package mpisim

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lockstepConfigReason returns why the configuration alone keeps a run
// on the event engine, or "" when the programs decide.
func lockstepConfigReason(cfg Config) string {
	switch {
	case cfg.Progress != GatedRendezvous:
		return fmt.Sprintf("%v rendezvous progress", cfg.Progress)
	case cfg.EagerMaxOutstanding > 0:
		return "finite eager buffers (EagerMaxOutstanding)"
	case cfg.ChargeCommBandwidth && cfg.SocketOf != nil && cfg.SocketBandwidth > 0:
		return "communication bandwidth charging"
	}
	return ""
}

// epochMsg is one message of an epoch, in program order.
type epochMsg struct {
	tag  int
	peer int32
	recv bool
}

// pairBlock is a run of epochs in one direction's traffic between two
// ranks: epochs epoch..epoch+n-1, the first carrying the sorted tags
// tags[off:off+len] of its pairList and each later one the same tags
// shifted by shift per epoch (0 when n is 1).
type pairBlock struct {
	epoch, n int32
	off, len int32
	shift    int
}

// pairList is one direction's traffic between the current rank and a
// peer in canonical form: the epochs that carry messages, in order, each
// with its tags sorted, cut greedily into blocks. A block takes the next
// epoch when it follows on directly with the same tag count, and its
// tags are the block's first epoch's shifted by n*shift (a one-epoch
// block takes any uniform shift and so fixes it). Equal traffic gives
// equal lists, and a list decodes to exactly one traffic, so two
// directions' lists are equal exactly when their messages pair by tag
// and epoch. Bulk-synchronous programs make one block a direction.
type pairList struct {
	blocks []pairBlock
	tags   []int
	group  []int // the tags this direction gets in the pattern being flushed
}

// addEpoch adds one epoch's sorted tags.
func (l *pairList) addEpoch(tags []int, epoch int32) {
	if n := len(l.blocks); n > 0 {
		b := &l.blocks[n-1]
		if epoch == b.epoch+b.n && int(b.len) == len(tags) {
			first := l.tags[b.off : b.off+b.len]
			shift, steps := b.shift, int(b.n)
			if b.n == 1 {
				shift, steps = tags[0]-first[0], 1
			}
			ok := true
			for i, t := range tags {
				if t != first[i]+steps*shift {
					ok = false
					break
				}
			}
			if ok {
				b.shift = shift
				b.n++
				return
			}
		}
	}
	l.blocks = append(l.blocks, pairBlock{epoch: epoch, n: 1, off: int32(len(l.tags)), len: int32(len(tags))})
	l.tags = append(l.tags, tags...)
}

// addRun adds n epochs from epoch on whose sorted tags are tags shifted
// by shift per epoch. It leaves the list as adding the epochs one by one
// would.
func (l *pairList) addRun(tags []int, epoch, n int32, shift int) {
	l.addEpoch(tags, epoch)
	if n == 1 {
		return
	}
	b := &l.blocks[len(l.blocks)-1]
	switch {
	case b.n == 1: // the first epoch opened b
		b.shift, b.n = shift, n
	case b.shift == shift:
		b.n += n - 1
	default: // the second epoch opens a block that takes the rest
		off := int32(len(l.tags))
		for _, t := range tags {
			l.tags = append(l.tags, t+shift)
		}
		rest := pairBlock{epoch: epoch + 1, n: n - 1, off: off, len: int32(len(tags))}
		if rest.n > 1 {
			rest.shift = shift
		}
		l.blocks = append(l.blocks, rest)
	}
}

// addGroup adds the pattern run's group of tags, if any, as n epochs
// from epoch on, and empties the group.
func (l *pairList) addGroup(epoch, n int32, shift int) {
	if len(l.group) > 0 {
		slices.Sort(l.group)
		l.addRun(l.group, epoch, n, shift)
		l.group = l.group[:0]
	}
}

func (l *pairList) reset() {
	l.blocks, l.tags, l.group = l.blocks[:0], l.tags[:0], l.group[:0]
}

func (l *pairList) equal(m *pairList) bool {
	return slices.Equal(l.blocks, m.blocks) && slices.Equal(l.tags, m.tags)
}

// pairPeer is the current rank's traffic with one peer: its Isends to
// the peer and its Irecvs from it.
type pairPeer struct {
	rank        int
	sent, recvd pairList
	matched     bool // a lower peer's record agreed with this traffic
}

// pairRec is a lower rank's traffic with a higher one, open until the
// higher rank's walk ends.
type pairRec struct {
	lo          int
	next        int32 // next open record for the same higher rank, or next free record; 1-based, 0 ends
	sent, recvd pairList
}

// The lockstep epoch shape Delay* Compute Isend* Irecv* Waitall as a
// state machine over op kinds, which validate steps through once per op.
const (
	shapeIdle uint8 = iota // before the epoch's Compute
	shapeSend              // after the Compute, sending
	shapeRecv              // receiving
	shapeOff               // the program breaks the shape
)

// Op kinds, the columns of shapeNext.
const (
	kindDelay = iota
	kindCompute
	kindIsend
	kindIrecv
	kindWaitall
)

// shapeNext is the shape's transition table, and shapeWhy names each
// transition to shapeOff.
var (
	shapeNext = [4][5]uint8{
		shapeIdle: {shapeIdle, shapeSend, shapeOff, shapeOff, shapeOff},
		shapeSend: {shapeOff, shapeOff, shapeSend, shapeRecv, shapeIdle},
		shapeRecv: {shapeOff, shapeOff, shapeOff, shapeRecv, shapeIdle},
		shapeOff:  {shapeOff, shapeOff, shapeOff, shapeOff, shapeOff},
	}
	shapeWhy = [3][5]string{
		shapeIdle: {kindIsend: "Isend outside the epoch's send phase", kindIrecv: "Irecv before the epoch's Compute", kindWaitall: "epoch without a Compute"},
		shapeSend: {kindDelay: "Delay after the epoch's Compute", kindCompute: "second Compute in one epoch"},
		shapeRecv: {kindDelay: "Delay after the epoch's Compute", kindCompute: "second Compute in one epoch", kindIsend: "Isend outside the epoch's send phase"},
	}
)

// lockFault returns why rank's program p breaks the epoch shape or the
// tag rule of pairCheck.endEpoch, naming the first op that does. validate
// calls it once its own walk has found that p does, so the walk itself
// only steps shapeNext.
func lockFault(rank int, p Program) string {
	st := shapeIdle
	var tagged, cur bool
	var prevMax, curMax int
	for pc, op := range p {
		kind, tag, msg := kindDelay, 0, false
		switch op := op.(type) {
		case Compute:
			kind = kindCompute
			if st == shapeIdle && op.MemBytes > 0 {
				return fmt.Sprintf("rank %d op %d: memory-bound Compute", rank, pc)
			}
		case Isend:
			kind, tag, msg = kindIsend, op.Tag, true
		case Irecv:
			kind, tag, msg = kindIrecv, op.Tag, true
		case Waitall:
			kind = kindWaitall
		}
		next := shapeNext[st][kind]
		if next == shapeOff {
			return fmt.Sprintf("rank %d op %d: %s", rank, pc, shapeWhy[st][kind])
		}
		if msg {
			if tagged && tag <= prevMax {
				return fmt.Sprintf("rank %d op %d: tag %d does not exceed the tags of earlier epochs", rank, pc, tag)
			}
			if !cur || tag > curMax {
				cur, curMax = true, tag
			}
		}
		if kind == kindWaitall && cur {
			prevMax, tagged, cur = curMax, true, false
		}
		st = next
	}
	return fmt.Sprintf("rank %d breaks the lockstep epoch shape", rank)
}

// pairCheck decides, together with validate's walk, whether the lockstep
// solver can compute the run. validate steps each program through
// shapeNext and hands pairCheck each epoch's messages; pairCheck checks
// that tags rise from epoch to epoch and that every Isend pairs with an
// Irecv on its (source, tag) channel in the receiver's epoch with the
// same number, and every Irecv with an Isend.
//
// Per rank, consecutive epochs whose messages repeat the pattern of the
// run's first epoch (the same peers and directions in the same order,
// every tag shifted by one amount per epoch) are folded into one pattern
// run; a run is added to the per-peer pairLists when an epoch breaks it
// and when the program ends. When a rank's walk ends, its lists with
// each higher rank are parked as a record addressed to that rank, and
// the records addressed to it are compared with its own lists. Memory
// follows the pairs whose lower rank has been walked and the higher not
// yet: a rank's neighbours in a chain, a row or plane of a torus.
type pairCheck struct {
	tagged  bool // an earlier epoch of the current rank carried a message
	prevMax int  // largest tag of those epochs

	// The current rank's pattern run: epochs runEpoch..runEpoch+runN-1
	// repeat pat with every tag shifted by shift per epoch.
	pat      []epochMsg
	runEpoch int32
	runN     int32
	shift    int

	slot  []int32 // rank -> 1 + its index in peers; 0 = not a peer of the current rank
	head  []int32 // rank -> first open record addressed to it (1-based)
	peers []pairPeer
	recs  []pairRec
	free  int32 // first free record (1-based)
}

func newPairCheck(ranks int) *pairCheck {
	buf := make([]int32, 2*ranks)
	return &pairCheck{slot: buf[:ranks], head: buf[ranks:]}
}

// endEpoch takes the messages of the current rank's epoch with the given
// number, in program order. It reports false if a tag does not exceed
// every tag of the rank's earlier epochs: a (source, tag) channel that
// spans two epochs lets a later epoch's message overtake into an earlier
// epoch's receive under the engine's arrival-order matching, which the
// recurrence does not model. Otherwise it extends the pattern run, or
// adds the run to the lists and starts a new one with this epoch.
func (c *pairCheck) endEpoch(ep []epochMsg, epoch int32) bool {
	if len(ep) > 0 {
		lo, hi := ep[0].tag, ep[0].tag
		for _, m := range ep[1:] {
			lo, hi = min(lo, m.tag), max(hi, m.tag)
		}
		if c.tagged && lo <= c.prevMax {
			return false
		}
		c.tagged, c.prevMax = true, hi
	}
	if c.runN > 0 && len(ep) == len(c.pat) {
		shift := c.shift
		if c.runN == 1 && len(ep) > 0 {
			shift = ep[0].tag - c.pat[0].tag
		}
		steps, same := int(c.runN), true
		for k, m := range ep {
			if q := c.pat[k]; m.peer != q.peer || m.recv != q.recv || m.tag != q.tag+steps*shift {
				same = false
				break
			}
		}
		if same {
			c.shift = shift
			c.runN++
			return true
		}
	}
	c.flush()
	c.pat = append(c.pat[:0], ep...)
	c.runEpoch, c.runN = epoch, 1
	return true
}

// flush adds the pattern run to the per-peer lists, grouped by peer and
// direction. Tags rise from epoch to epoch, so shifting a group's sorted
// tags keeps them sorted.
func (c *pairCheck) flush() {
	if c.runN == 0 {
		return
	}
	for _, m := range c.pat {
		pp := c.peer(int(m.peer))
		l := &pp.sent
		if m.recv {
			l = &pp.recvd
		}
		l.group = append(l.group, m.tag)
	}
	for i := range c.peers {
		c.peers[i].sent.addGroup(c.runEpoch, c.runN, c.shift)
		c.peers[i].recvd.addGroup(c.runEpoch, c.runN, c.shift)
	}
}

// peer returns the current rank's traffic with peer.
func (c *pairCheck) peer(peer int) *pairPeer {
	if s := c.slot[peer]; s != 0 {
		return &c.peers[s-1]
	}
	return c.addPeer(peer)
}

// addPeer opens the current rank's traffic with peer in a slot whose
// lists it reuses.
func (c *pairCheck) addPeer(peer int) *pairPeer {
	if len(c.peers) < cap(c.peers) {
		c.peers = c.peers[:len(c.peers)+1]
	} else {
		c.peers = append(c.peers, pairPeer{})
	}
	pp := &c.peers[len(c.peers)-1]
	pp.rank, pp.matched = peer, false
	pp.sent.reset()
	pp.recvd.reset()
	c.slot[peer] = int32(len(c.peers))
	return pp
}

// end closes the walk of rank's program p: it checks that p ends in a
// Waitall and the records lower ranks addressed to rank, parks rank's
// traffic with higher ranks, and returns why the run cannot take the
// solver, or "".
func (c *pairCheck) end(rank int, p Program) string {
	c.flush()
	c.tagged, c.pat, c.runN = false, c.pat[:0], 0
	why := ""
	// Trailing Delays after the last Waitall leave the shape idle, as a
	// completed epoch does, so the last op itself must be the Waitall.
	if len(p) == 0 {
		why = fmt.Sprintf("rank %d does not end in a Waitall", rank)
	} else if _, ok := p[len(p)-1].(Waitall); !ok {
		why = fmt.Sprintf("rank %d does not end in a Waitall", rank)
	}
	for r := c.head[rank]; r != 0; {
		rec := &c.recs[r-1]
		if why == "" {
			if s := c.slot[rec.lo]; s == 0 {
				why = fmt.Sprintf("rank %d's messages with rank %d are unpaired", rec.lo, rank)
			} else if pp := &c.peers[s-1]; !rec.sent.equal(&pp.recvd) || !rec.recvd.equal(&pp.sent) {
				why = fmt.Sprintf("ranks %d and %d: Isends and Irecvs do not pair by tag and epoch", rec.lo, rank)
			} else {
				pp.matched = true
			}
		}
		next := rec.next
		rec.next, c.free = c.free, r
		r = next
	}
	c.head[rank] = 0
	for i := range c.peers {
		pp := &c.peers[i]
		c.slot[pp.rank] = 0
		switch {
		case why != "":
		case pp.rank < rank && !pp.matched:
			why = fmt.Sprintf("rank %d's messages with rank %d are unpaired", rank, pp.rank)
		case pp.rank > rank:
			r := c.free
			if r != 0 {
				c.free = c.recs[r-1].next
			} else {
				c.recs = append(c.recs, pairRec{})
				r = int32(len(c.recs))
			}
			// The record takes the lists and leaves its spare buffers to
			// the peer slot.
			rec := &c.recs[r-1]
			rec.lo, rec.next = rank, c.head[pp.rank]
			rec.sent, pp.sent = pp.sent, rec.sent
			rec.recvd, pp.recvd = pp.recvd, rec.recvd
			c.head[pp.rank] = r
		}
	}
	c.peers = c.peers[:0]
	return why
}

// lockSend is one Isend of the current step, as the solver's second pass
// needs it.
type lockSend struct {
	// a and b are the eager send's completion and arrival times, or the
	// rendezvous send's post time and transfer time.
	a, b  sim.Time
	oRecv sim.Time
	to    int32
	eager bool
}

// lockstep is the solver's state: flat per-rank arrays reused across
// steps.
type lockstep struct {
	cfg   Config
	progs []Program
	pc    []int32    // next op; -1 once the rank has finished
	post  []sim.Time // R: when the rank posted the current step's receives
	done  []sim.Time // W: the latest completion of the rank's current step
	nsend []int32    // the rank's Isends in sends this step
	sends []lockSend // the step's Isends in rank order
	recs  []*trace.Recorder
	segs  bool
	end   sim.Time
}

// runLockstep computes an eligible run. The recurrence, for rank i at
// step s, with t starting at W_i(s-1):
//
//   - the Delays, the Compute's duration and its noise draw (when > 0)
//     advance t in that order;
//   - send k is posted at t, and t advances by its send overhead; an
//     eager send completes at post+oS and arrives at post+oS+T;
//   - R_i is t after the last send;
//   - the rendezvous gate opens at G_i = max(R_i, max over rendezvous
//     sends of max(post, R_to));
//   - W_i(s) is the latest of R_i, each eager send's completion, G_i+T
//     for each rendezvous send, and for each receive max(arrival, R_i)+oR
//     (eager) or G_from+T+oR (rendezvous).
//
// Every sum is formed in the engine's order, so the times are bit
// identical. Events counts what the engine would schedule.
func runLockstep(cfg Config, programs []Program, shapes []rankShape) *Result {
	n := cfg.Ranks
	var sends int
	for _, sh := range shapes {
		sends += int(sh.sends)
	}
	s := &lockstep{
		cfg:   cfg,
		progs: programs,
		pc:    make([]int32, n),
		post:  make([]sim.Time, n),
		done:  make([]sim.Time, n),
		nsend: make([]int32, n),
		sends: make([]lockSend, 0, sends),
		segs:  cfg.Trace == TraceFull,
	}
	if cfg.Trace != TraceOff {
		s.recs = make([]*trace.Recorder, n)
		for i, sh := range shapes {
			segs := 0
			if s.segs {
				segs = int(sh.segments)
			}
			s.recs[i] = trace.NewRecorderSized(i, segs, int(sh.steps))
		}
	}
	events := uint64(n) // every rank's start event
	for {
		ev, live := s.postSends()
		events += ev
		if !live {
			break
		}
		s.complete()
		// Yield once a step. Sweep workers that compute points back to
		// back never block, so the garbage collector's fractional mark
		// worker otherwise waits for preemption; over such a long mark
		// phase the points allocate enough to raise the next heap goal
		// (decay-sweep's peak RSS swung up to 47 MB from 27 without this).
		runtime.Gosched()
	}
	var traces trace.Set
	if s.recs != nil {
		ts := make([]trace.RankTrace, n)
		for i, r := range s.recs {
			ts[i] = r.Trace()
		}
		traces = trace.NewSet(ts)
	}
	return &Result{Traces: traces, End: s.end, Events: events}
}

// postSends is a step's first pass, rank by rank: it ends each rank's
// previous step, then runs the new step's delays, compute and noise and
// posts its sends, up to the moment R the receives are posted. It
// reports the events the engine would schedule for those ops and whether
// any rank had a step left.
func (s *lockstep) postSends() (events uint64, live bool) {
	net, noise := s.cfg.Net, s.cfg.Noise
	s.sends = s.sends[:0]
	for i, p := range s.progs {
		k := int(s.pc[i])
		if k < 0 {
			continue
		}
		t := s.done[i]
		if k > 0 {
			s.endWait(i, p[k-1].(Waitall).Step, s.post[i], t)
		}
		if k == len(p) {
			s.pc[i], s.nsend[i] = -1, 0
			continue
		}
		live = true
		var rec *trace.Recorder
		if s.segs {
			rec = s.recs[i]
		}
		for ; ; k++ {
			d, ok := p[k].(Delay)
			if !ok {
				break
			}
			end := t + d.Duration
			if rec != nil {
				rec.Add(trace.Delay, t, end, d.Step)
			}
			t = end
			events++
		}
		c := p[k].(Compute)
		k++
		end := t + c.Duration
		if rec != nil {
			rec.Add(trace.Exec, t, end, c.Step)
		}
		t = end
		events++
		if noise != nil {
			if x := noise(i, c.Step); x > 0 {
				end := t + x
				if rec != nil {
					rec.Add(trace.Noise, t, end, c.Step)
				}
				t = end
				events++
			}
		}
		first := len(s.sends)
		for ; ; k++ {
			snd, ok := p[k].(Isend)
			if !ok {
				break
			}
			to, b := snd.To, snd.Bytes
			oS, oR, tr := net.SendOverhead(i, to, b), net.RecvOverhead(i, to, b), net.Transfer(i, to, b)
			if !(oS >= 0 && oR >= 0 && tr >= 0) {
				panic(fmt.Sprintf("mpisim: network model returned a negative or NaN cost for %d -> %d (%d bytes)", i, to, b))
			}
			// Events: the send's completion, the eager delivery, and the
			// receive's completion.
			if net.ProtocolFor(i, to, b) == netmodel.Eager {
				s.sends = append(s.sends, lockSend{a: t + oS, b: t + oS + tr, oRecv: oR, to: int32(to), eager: true})
				events += 3
			} else {
				s.sends = append(s.sends, lockSend{a: t, b: tr, oRecv: oR, to: int32(to)})
				events += 2
			}
			if oS > 0 {
				end := t + oS
				if rec != nil {
					rec.Add(trace.Overhead, t, end, -1)
				}
				t = end
				events++
			}
		}
		for ; ; k++ {
			if _, ok := p[k].(Irecv); !ok {
				break
			}
		}
		s.pc[i] = int32(k + 1) // past the Waitall
		s.nsend[i] = int32(len(s.sends) - first)
		s.post[i], s.done[i] = t, t
	}
	return events, live
}

// complete is a step's second pass: with every rank's R known, it opens
// each rank's rendezvous gate and folds each send's completion into its
// sender's and its receiver's latest completion.
func (s *lockstep) complete() {
	post, done, sends := s.post, s.done, s.sends
	for i, m := range s.nsend {
		if m == 0 {
			continue
		}
		own := sends[:m]
		sends = sends[m:]
		g := post[i]
		for _, x := range own {
			if !x.eager {
				g = max(g, x.a, post[x.to])
			}
		}
		w := done[i]
		for _, x := range own {
			var fin, recv sim.Time
			if x.eager {
				fin, recv = x.a, max(x.b, post[x.to])+x.oRecv
			} else {
				fin = g + x.b
				recv = fin + x.oRecv
			}
			w = max(w, fin)
			done[x.to] = max(done[x.to], recv)
		}
		done[i] = w
	}
}

// endWait closes rank i's Waitall of the given step, entered at entry
// and left at end, the way the engine's progressWait does.
func (s *lockstep) endWait(i, step int, entry, end sim.Time) {
	if s.segs {
		s.recs[i].Add(trace.Wait, entry, end, step)
	}
	if s.cfg.OnWait != nil && end > entry {
		s.cfg.OnWait(i, step, entry, end)
	}
	if s.recs != nil {
		s.recs[i].EndStep(step, end)
	}
	s.end = max(s.end, end)
}
