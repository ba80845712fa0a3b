// Package mpisim simulates MPI-like message-passing programs at the level
// of detail needed to study idle-wave propagation: non-blocking
// Isend/Irecv/Waitall point-to-point communication with eager and
// rendezvous protocols, injected delays, fine-grained noise, and optional
// shared-memory-bandwidth execution phases.
//
// Each rank runs a Program — a flat list of operations — on top of a
// discrete-event engine, or, for lockstep programs, the lockstep solver
// that computes the same result directly (see "Lockstep solver"). By
// default the simulator records a full trace
// (execution, delay, noise, wait and overhead segments plus per-step
// completion times) for every rank; the analytics in internal/wave
// consume those traces. Large simulations can instead stream wait
// segments to an observer (Config.OnWait) and dial recording down with
// Config.Trace, so memory stays proportional to the live simulation
// state rather than the full rank x step history.
//
// # Protocol semantics
//
// Eager messages (size at or below the cost model's eager limit) are
// buffered: the send request completes locally at post time plus send
// overhead, and the data arrives at the receiver one transfer time later,
// whether or not a receive is posted. Ranks "upstream" of a delayed rank
// are therefore unaffected by it (Fig. 4 of the paper).
//
// Rendezvous messages require a handshake: the transfer cannot start
// before the matching receive is posted, and the send request only
// completes when the transfer does. Under the default GatedRendezvous
// progress mode, a rank's rendezvous transfers additionally all start
// together, once the *last* of its rendezvous sends has been matched —
// modelling a progress engine that spins on an outstanding handshake.
// This reproduces the paper's observation that bidirectional
// rendezvous-mode idle waves travel twice as fast (σ=2 in Eq. 2): a
// neighbor of the delayed process withholds its transfers to its other
// neighbors too, so the wave reaches two neighbor shells per period.
// IndependentRendezvous starts each transfer as soon as its own match
// exists, which removes the doubling (ablation).
//
// # Matching order
//
// Matching is FIFO per (source, tag) channel, as in MPI. Across the two
// protocols the simulator additionally guarantees that a receive always
// prefers a buffered *eager* message over a queued rendezvous handshake
// for the same (source, tag): eager data is already at the receiver, so
// consuming it first models a real MPI library draining its unexpected-
// message buffer before answering clear-to-send. Per protocol, order
// stays FIFO.
//
// # Lockstep solver
//
// Most of the paper's scenarios are lockstep: every rank runs epochs of
// the shape Delay* Compute Isend* Irecv* Waitall. For those, each rank's
// step end is an exact max-plus function of its own and its neighbours'
// previous step ends (Baccelli et al., Synchronization and Linearity,
// 1992). Run computes such a run step by step from that recurrence over
// flat per-rank arrays (lockstep.go), with no event queue, matching lists
// or request state, and sends every other run to the event engine.
//
// A run takes the solver when, as validation checks in its one walk over
// the ops:
//   - every epoch has the shape above, with MemBytes == 0 in its Compute,
//     and every program ends in a Waitall;
//   - the tags of each rank's epochs rise from epoch to epoch, so no
//     (source, tag) channel spans two epochs;
//   - each Isend pairs with an Irecv on its (source, tag) channel in the
//     receiver's epoch with the same number, and each Irecv with an Isend;
//   - Progress is GatedRendezvous, EagerMaxOutstanding is 0 and no
//     communication bandwidth is charged.
//
// Any network model and any Shards value qualify; the model must return
// non-negative, finite costs, or the solver panics. PlanShards reports the
// decision (ShardDecision.Lockstep and EngineReason).
//
// The solver does not read the programs. Validation's walk, which reads
// every op in rank order anyway, compiles an eligible run into a schedule
// without pointers, and only Run asks for it (PlanShards does not). Per
// rank it holds runs of epochs with the same Isends and the same Compute
// and Waitall Step offsets from the epoch index, each with its Compute
// duration or, once that varies, a column of per-epoch durations laid
// out step-major; the Isends as (receiver - sender, bytes); and the
// Delays in a side list. Irecvs are not kept. Equal Isend lists and equal
// runs are shared, so every interior rank of a bulk-synchronous chain or
// torus reads the same run: the schedule then costs 8 bytes per rank
// (its cursor) and 24 per Delay, plus 8 per rank and step when durations
// vary.
//
// The solver's output is the engine's, byte for byte: the same trace
// segments per rank in the engine's order (delays, exec, noise, one
// overhead per send, then the wait), the same StepEnd and End, and
// Events counted as the events the engine would schedule for each op.
// Every time is a sum formed in the engine's order. NoiseFunc is called
// once per Compute, in each rank's step order, with a negative draw
// clamped to none. OnWait fires for every positive wait in (step, rank)
// order. lockstep_test.go checks all of this against the engine on
// randomized scenarios.
//
// # Allocation discipline and sparse state
//
// The simulator is the hot path of every sweep point, so its per-rank
// state lives in run-scoped slabs sized from the programs during
// validation. Each rank's requests occupy a fixed window of one
// per-simulation request slab, as long as its largest Waitall epoch;
// the window rewinds when the epoch ends. Each rank's matching state is
// one flat, arrival-ordered list of records (posted receives,
// unexpected eager data, unexpected rendezvous handshakes) carved from
// one record slab. Eager messages in flight come from a per-simulation
// free list and return to it on delivery. Waitall progress is an O(1)
// counter-and-watermark check instead of an O(pending) rescan, and all
// hot events go through the engine's typed-callback form, so no capture
// closures are allocated.
//
// State is therefore proportional to ranks x requests per epoch, which
// the programs already exceed, and never to ranks squared: the
// finite-eager-buffer tracker keeps one small active-receiver list per
// sender instead of a ranks x ranks matrix, and memory-bandwidth
// sockets materialize on first touch only. See docs/ARCHITECTURE.md,
// "Engine internals & performance" and "Scaling to 10^5 ranks".
package mpisim

import (
	"fmt"
	"strings"

	"repro/internal/memband"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProgressMode selects how rendezvous transfers begin.
type ProgressMode int

const (
	// GatedRendezvous holds all of a rank's rendezvous transfers until
	// every rendezvous send of the current Waitall epoch is matched.
	GatedRendezvous ProgressMode = iota
	// IndependentRendezvous starts each transfer as soon as its own
	// receive is posted and the sender has entered Waitall.
	IndependentRendezvous
)

func (m ProgressMode) String() string {
	switch m {
	case GatedRendezvous:
		return "gated"
	case IndependentRendezvous:
		return "independent"
	default:
		return fmt.Sprintf("ProgressMode(%d)", int(m))
	}
}

// TraceMode selects how much of the run the simulator records.
type TraceMode int

const (
	// TraceFull records every timeline segment and per-step completion
	// time — the default, and what the dense analytics consume.
	TraceFull TraceMode = iota
	// TraceSteps records only per-step completion times (StepEnd); the
	// segment timeline is dropped. Wave analytics that need wait
	// segments must stream them through Config.OnWait instead.
	TraceSteps
	// TraceOff records nothing; Result.Traces is empty. The run's End
	// time, event count and any Config.OnWait stream remain available.
	// This is the mode for 10^5-rank scenarios, where the full trace
	// would dwarf the live simulation state.
	TraceOff
)

func (m TraceMode) String() string {
	switch m {
	case TraceFull:
		return "full"
	case TraceSteps:
		return "steps"
	case TraceOff:
		return "off"
	default:
		return fmt.Sprintf("TraceMode(%d)", int(m))
	}
}

// Op is one operation in a rank's program.
type Op interface{ isOp() }

// Compute is an execution phase. If MemBytes is positive and the
// simulation has socket bandwidth configured, the phase is memory-bound:
// its duration is MemBytes divided by the rank's share of its socket's
// bandwidth (plus Duration, which then acts as a fixed compute floor).
// Otherwise the phase takes exactly Duration. Step tags the phase for
// noise injection and tracing.
type Compute struct {
	Duration sim.Time
	MemBytes float64
	Step     int
}

// Delay is a deliberately injected one-off execution delay (the paper's
// "strong delay" that triggers an idle wave).
type Delay struct {
	Duration sim.Time
	Step     int
}

// Isend posts a non-blocking send of Bytes to rank To with the given Tag.
type Isend struct {
	To    int
	Bytes int
	Tag   int
}

// Irecv posts a non-blocking receive from rank From with the given Tag.
type Irecv struct {
	From  int
	Bytes int
	Tag   int
}

// Waitall blocks until every request posted since the previous Waitall has
// completed. Step tags the completed time step in the trace.
type Waitall struct {
	Step int
}

func (Compute) isOp() {}
func (Delay) isOp()   {}
func (Isend) isOp()   {}
func (Irecv) isOp()   {}
func (Waitall) isOp() {}

// Program is the operation list executed by one rank. The simulator
// only reads programs, and an op boxed from a non-pointer value cannot
// be mutated through the Op interface, so programs may share op boxes
// across ranks and shards.
type Program []Op

// NoiseFunc returns extra execution time injected into the given rank's
// execution phase of the given step (fine-grained noise, Eq. 3). It is
// called once per Compute, in each rank's program order, but the calls
// of different ranks interleave differently in the serial engine, the
// shard driver and the lockstep solver. A draw may therefore depend only
// on the rank and that rank's own call history, never on other ranks'
// calls; every injector in internal/noise keeps per-rank streams for
// this reason.
type NoiseFunc func(rank, step int) sim.Time

// Config parameterizes a simulation run.
type Config struct {
	// Ranks is the number of MPI-like processes.
	Ranks int
	// Net is the communication cost model (required).
	Net netmodel.Model
	// Progress selects the rendezvous progress semantics.
	Progress ProgressMode
	// Noise, if non-nil, injects extra time into every Compute phase.
	Noise NoiseFunc
	// SocketOf maps a rank to a socket index for memory-bandwidth
	// sharing. Required if any Compute op uses MemBytes.
	SocketOf func(rank int) int
	// SocketBandwidth is each socket's aggregate memory bandwidth in
	// bytes per second. Required if any Compute op uses MemBytes.
	SocketBandwidth float64
	// CoreBandwidth limits a single phase's share of the socket
	// bandwidth (a lone core cannot saturate the memory interface).
	// Zero means no per-core limit.
	CoreBandwidth float64
	// EagerMaxOutstanding bounds the number of eager messages in flight
	// (sent but not yet matched) per sender-receiver pair; further sends
	// fall back to the rendezvous protocol, modelling finite eager
	// buffers. Zero means unlimited.
	EagerMaxOutstanding int
	// ChargeCommBandwidth, when sockets are configured, makes message
	// payloads consume memory bandwidth on the sender's and receiver's
	// sockets (DMA traffic competing with the application's streaming
	// accesses). The paper's Eq. 1 model ignores this cost, which is one
	// reason it is optimistic for communication-heavy runs (Fig. 1).
	ChargeCommBandwidth bool
	// Trace selects how much of the run is recorded; see TraceMode.
	Trace TraceMode
	// OnWait, if non-nil, streams every positive-length Waitall wait
	// interval. It fires in every trace mode, so analytics can run
	// incrementally (see wave.FrontTracker) without buffering the full
	// trace. The serial engine delivers intervals the moment they
	// complete, in event order; the lockstep solver in (step, rank)
	// order; a sharded engine run (Shards >= 1) at horizon boundaries in
	// (end, start, rank, step) order. On every path each rank's own
	// intervals arrive in time order, which is the only ordering the
	// streaming analytics rely on.
	OnWait func(rank, step int, start, end sim.Time)
	// Shards requests conservative parallel execution: the ranks are cut
	// into that many contiguous partitions, each running its own event
	// engine on its own goroutine, synchronized through lookahead
	// horizons (see shard.go). 0 runs the classic serial loop. A
	// lockstep run ignores Shards: the solver computes it whole. Any
	// positive count produces byte-identical results — scenarios whose
	// cross-partition interactions carry no lookahead (rendezvous
	// messages across a cut, finite eager buffers, communication
	// bandwidth charging, non-cloneable noise) fall back to the serial
	// engine; PlanShards reports the decision.
	Shards int
	// NoiseFactory, required for parallel execution of noisy scenarios,
	// builds a fresh injector whose per-rank streams are byte-identical
	// to Noise's. Each shard goroutine gets its own instance, so the
	// lazily materialized per-rank stream state is never shared across
	// goroutines. Every injector in internal/noise qualifies: streams
	// are derived from (seed, rank) alone. Setting NoiseFactory without
	// Noise is an error — the serial path always uses Noise.
	NoiseFactory func() NoiseFunc
}

// Result is the outcome of a run.
type Result struct {
	Traces trace.Set
	End    sim.Time
	Events uint64
}

type rankState int

const (
	stRunning rankState = iota
	stComputing
	stWaiting
	stDone
)

// request is one posted non-blocking operation. A rank's requests live
// in a fixed window of the simulation's request slab, and the window
// rewinds when the rank's Waitall epoch ends — by which point both sides
// of any match have completed, so no stale reference can observe a
// reused slot.
type request struct {
	owner *rank
	match *request // rendezvous counterpart once matched
	peer  int
	bytes int
	tag   int
	proto netmodel.Protocol

	isSend          bool
	done            bool
	transferStarted bool
}

// eagerMsg is a buffered eager message in flight to its receiver.
// Pooled per simulation; recycled on delivery.
type eagerMsg struct {
	s                    *simulation
	from, to, tag, bytes int
	arriveAt             sim.Time
}

// recKind says what a matching record holds.
type recKind uint8

const (
	recPosted recKind = iota // a receive posted before its data
	recEager                 // eager data that arrived before its receive
	recRTS                   // a rendezvous handshake that arrived before its receive
)

// matchRec is one entry of a rank's matching state: the sending peer and
// tag of its (source, tag) channel, the request behind a posted receive
// or a rendezvous handshake, and, for eager data, the message's size,
// which its receive overhead is charged on.
type matchRec struct {
	req   *request
	tag   int
	bytes int
	peer  int32
	kind  recKind
}

// matchList is a rank's matching state: one flat list of records in
// arrival order. A rank only ever has a handful in flight (its topology
// neighbors times the tags of the current steps), so a linear scan beats
// any index. Matching is always exact on (source, tag), and the first
// record of a kind on a channel is the oldest, so arrival order gives
// MPI's per-channel FIFO.
type matchList []matchRec

// take removes and returns the first record of the given kind on the
// (peer, tag) channel, keeping the rest in arrival order.
func (l *matchList) take(kind recKind, peer, tag int) (matchRec, bool) {
	recs := *l
	for i := range recs {
		if x := recs[i]; x.kind == kind && int(x.peer) == peer && x.tag == tag {
			copy(recs[i:], recs[i+1:])
			*l = recs[:len(recs)-1]
			return x, true
		}
	}
	return matchRec{}, false
}

type rank struct {
	id   int
	s    *simulation
	prog Program
	pc   int

	state rankState
	// reqs is the rank's request window, as long as its largest Waitall
	// epoch; reqs[:npend] were posted since the last Waitall.
	reqs  []request
	npend int
	recs  matchList

	// Waitall bookkeeping: outstanding counts pending requests whose
	// completion has not been decided yet, and watermark is the latest
	// decided completion time of the epoch. Together they make the
	// progress check O(1) — no rescan of pending.
	outstanding   int
	watermark     sim.Time
	waitStep      int
	waitEntry     sim.Time
	gateRemaining int // unmatched rendezvous sends in this epoch

	// Continuation scratch for the typed-callback events. A rank blocks
	// on at most one continuation at a time (delay end, compute end,
	// noise end, send-overhead end), so one set of fields suffices and
	// no closure needs to capture them.
	phaseStart sim.Time
	phaseEnd   sim.Time
	phaseStep  int
	memFloor   sim.Time // fixed compute floor of a memory-bound phase

	rec *rankRecorder
}

// rankRecorder scales a rank's recording to the configured TraceMode:
// segs is nil under TraceSteps (step completion times only), and the
// whole recorder is nil under TraceOff.
type rankRecorder struct {
	rec  *trace.Recorder
	segs bool
}

func (r *rank) addSeg(kind trace.Kind, start, end sim.Time, step int) {
	if r.rec != nil && r.rec.segs {
		r.rec.rec.Add(kind, start, end, step)
	}
}

func (r *rank) endStep(step int, at sim.Time) {
	if r.rec != nil {
		r.rec.rec.EndStep(step, at)
	}
}

type simulation struct {
	cfg     Config
	engine  *sim.Engine
	ranks   []rank // one backing array; event args point into it
	sockets map[int]*memband.Socket
	// eager tracks outstanding eager messages per (from, to) pair for
	// the finite-eager-buffer option; inactive (and free) otherwise.
	eager eagerTracker

	// Shard view: this simulation owns global ranks [rankLo, rankHi).
	// The serial engine owns everything (rankLo 0, shard nil). Per-rank
	// indexed state (ranks, eager rows) is offset by rankLo;
	// rank ids in events, traces and messages stay global.
	rankLo, rankHi int
	shard          *shardLink

	freeMsgs []*eagerMsg // eager messages not in flight
}

// eagerTracker counts in-flight eager messages per (from, to) pair. It
// is one sparse structure, exact at any rank count: each sender keeps a
// small list of the receivers it currently has eager traffic toward
// (its topology neighbors, in practice), so memory follows the active
// communication pattern instead of growing as ranks squared. A
// receiver's entry is dropped the moment its in-flight count returns to
// zero. The tracker is entirely inactive (and free) when the
// configuration does not bound eager buffers.
type eagerTracker struct {
	rows []eagerRow // indexed by sender
}

// eagerRow is one sender's active-receiver list.
type eagerRow struct {
	peers []eagerPeer
}

// eagerPeer is one receiver the sender has eager messages in flight to.
type eagerPeer struct {
	to    int32
	count int32
}

func (t *eagerTracker) init(ranks int) { t.rows = make([]eagerRow, ranks) }

func (t *eagerTracker) active() bool { return t.rows != nil }

func (t *eagerTracker) count(from, to int) int {
	for _, p := range t.rows[from].peers {
		if int(p.to) == to {
			return int(p.count)
		}
	}
	return 0
}

func (t *eagerTracker) inc(from, to int) {
	row := &t.rows[from]
	for i := range row.peers {
		if int(row.peers[i].to) == to {
			row.peers[i].count++
			return
		}
	}
	row.peers = append(row.peers, eagerPeer{to: int32(to), count: 1})
}

// eagerDec releases one in-flight eager slot for a matched message. The
// tracker's rows are indexed by shard-local sender; an active tracker
// implies all eager traffic is intra-shard (a cross-shard send with
// finite eager buffers is a plan ineligibility), so the sender id always
// translates.
func (s *simulation) eagerDec(from, to int) {
	s.eager.dec(from-s.rankLo, to)
}

func (t *eagerTracker) dec(from, to int) {
	if t.rows == nil {
		return
	}
	row := &t.rows[from]
	for i := range row.peers {
		if int(row.peers[i].to) == to {
			row.peers[i].count--
			if row.peers[i].count == 0 {
				last := len(row.peers) - 1
				row.peers[i] = row.peers[last]
				row.peers = row.peers[:last]
			}
			return
		}
	}
}

// newRequest takes the next slot of the rank's request window and
// initializes it field by field (a whole-struct assignment compiles to a
// block copy, which costs more than the few stores it replaces).
func (r *rank) newRequest(isSend bool, peer, bytes, tag int, proto netmodel.Protocol) *request {
	req := &r.reqs[r.npend]
	r.npend++
	r.outstanding++
	req.owner = r
	req.match = nil
	req.peer = peer
	req.bytes = bytes
	req.tag = tag
	req.proto = proto
	req.isSend = isSend
	req.done = false
	req.transferStarted = false
	return req
}

// newMsg takes an eager message from the pool and initializes it.
func (s *simulation) newMsg(from, to, tag, bytes int, arriveAt sim.Time) *eagerMsg {
	var msg *eagerMsg
	if n := len(s.freeMsgs); n > 0 {
		msg = s.freeMsgs[n-1]
		s.freeMsgs = s.freeMsgs[:n-1]
	} else {
		msg = &eagerMsg{}
	}
	msg.s = s
	msg.from, msg.to, msg.tag, msg.bytes = from, to, tag, bytes
	msg.arriveAt = arriveAt
	return msg
}

// rankShape is what validation learns about one rank's program: the
// sizes of its request window and match list, and its recorder hints.
type rankShape struct {
	window int32 // largest Waitall epoch's Isend+Irecv count
	recvs  int32 // largest Waitall epoch's Irecv count
	// segments bounds the trace segments the program can record: a
	// Compute (one exec segment, plus one noise segment when noise is
	// configured), a Delay, an Isend (its send overhead) and a Waitall
	// (its wait) each record one; an Irecv never does.
	segments int32
	steps    int32 // completed steps, one per Waitall
	sends    int32 // largest Waitall epoch's Isend count
}

// newRangedSimulation builds a simulation owning global ranks [lo, hi)
// and schedules their start events. programs and shapes are always the
// full per-rank slices; the shard picks its window out of them. A
// non-nil link marks the simulation as one shard of a parallel run:
// cross-shard eager sends divert to the link's outbox and wait
// intervals buffer in its wait list instead of firing OnWait.
func newRangedSimulation(cfg Config, programs []Program, shapes []rankShape, lo, hi int, link *shardLink) *simulation {
	n := hi - lo
	s := &simulation{
		cfg:    cfg,
		engine: &sim.Engine{},
		ranks:  make([]rank, n),
		rankLo: lo,
		rankHi: hi,
		shard:  link,
	}
	if cfg.EagerMaxOutstanding > 0 {
		s.eager.init(n)
	}
	// One request slab and one record slab for the whole range. A match
	// list gets twice its largest epoch's receives, because a neighbor
	// one step ahead can deliver the next epoch's messages early; a list
	// that outgrows that reallocates alone.
	var nreq, nrec int
	for _, sh := range shapes[lo:hi] {
		nreq += int(sh.window)
		nrec += 2 * int(sh.recvs)
	}
	reqs := make([]request, nreq)
	recs := make(matchList, nrec)
	for i := range s.ranks {
		r := &s.ranks[i]
		sh := shapes[lo+i]
		w, c := int(sh.window), 2*int(sh.recvs)
		r.id = lo + i
		r.s = s
		r.prog = programs[lo+i]
		r.reqs, reqs = reqs[:w:w], reqs[w:]
		r.recs, recs = recs[:0:c], recs[c:]
		switch cfg.Trace {
		case TraceSteps:
			r.rec = &rankRecorder{rec: trace.NewRecorderSized(r.id, 0, int(sh.steps))}
		case TraceFull:
			r.rec = &rankRecorder{rec: trace.NewRecorderSized(r.id, int(sh.segments), int(sh.steps)), segs: true}
		}
		s.engine.ScheduleCall(0, rankExecCall, r)
	}
	return s
}

// assembleResult runs the deadlock check and builds the Result over the
// drained simulation parts — the single serial simulation, or a parallel
// run's shards in partition order (which is global rank order, so the
// diagnostics and the trace set come out identical either way).
func assembleResult(cfg Config, parts []*simulation, end sim.Time, events uint64) (*Result, error) {
	var stuck []string
	nStuck := 0
	for _, s := range parts {
		for i := range s.ranks {
			if r := &s.ranks[i]; r.state != stDone {
				stuck = append(stuck, fmt.Sprintf("rank %d (%v at pc %d)", r.id, r.state, r.pc))
				nStuck++
			}
		}
	}
	if nStuck > 0 {
		return nil, fmt.Errorf("mpisim: deadlock, %d rank(s) blocked: %s",
			nStuck, strings.Join(stuck, "; "))
	}

	var traces trace.Set
	if cfg.Trace != TraceOff {
		ts := make([]trace.RankTrace, 0, cfg.Ranks)
		for _, s := range parts {
			for i := range s.ranks {
				ts = append(ts, s.ranks[i].rec.rec.Trace())
			}
		}
		traces = trace.NewSet(ts)
	}
	return &Result{Traces: traces, End: end, Events: events}, nil
}

// Run simulates the programs and returns the trace set. It validates the
// configuration and programs. A lockstep run (see the package comment)
// is computed by the lockstep solver; any other run goes to the event
// engine, which reports a deadlock error if any rank is still blocked
// when no events remain. With Config.Shards > 0 the engine executes the
// eligible parallel plan (see shard.go) and falls back to the serial
// loop otherwise. Every path gives a result byte-identical to the serial
// engine's.
func Run(cfg Config, programs []Program) (*Result, error) {
	shapes, sched, reason, err := validate(cfg, programs, compileLockstep)
	if err != nil {
		return nil, err
	}
	if reason == "" {
		return runLockstep(cfg, shapes, sched), nil
	}
	return runEngine(cfg, programs, shapes)
}

// runEngine runs the event engine: the parallel plan with Shards > 0,
// else the serial loop. The caller has already validated.
func runEngine(cfg Config, programs []Program, shapes []rankShape) (*Result, error) {
	if cfg.Shards > 0 {
		return runSharded(cfg, programs, shapes)
	}
	return runSerial(cfg, programs, shapes)
}

// runSerial builds the one-engine simulation over every rank and drains
// it. The caller has already validated.
func runSerial(cfg Config, programs []Program, shapes []rankShape) (*Result, error) {
	s := newRangedSimulation(cfg, programs, shapes, 0, cfg.Ranks, nil)
	end := s.engine.Run()
	return assembleResult(cfg, []*simulation{s}, end, s.engine.Executed())
}

// validateMode says what validate does besides checking the run.
type validateMode int

const (
	checkLockstep   validateMode = iota // decide whether the lockstep solver can compute the run
	compileLockstep                     // decide, and compile the solver's schedule
	engineOnly                          // skip the decision: the engine was requested
)

// validate checks the configuration and programs and, in the same walk
// over every op, measures each rank's shape. Rank by rank it also
// decides whether the lockstep solver can compute the run: it returns
// why not, or "". With compileLockstep the walk also compiles the
// schedule the solver reads, returned when the solver can run; with
// engineOnly it skips the decision and says the engine was requested.
func validate(cfg Config, programs []Program, mode validateMode) (shapes []rankShape, sched *lockSchedule, lockReason string, err error) {
	if cfg.Ranks <= 0 {
		return nil, nil, "", fmt.Errorf("mpisim: need positive rank count, got %d", cfg.Ranks)
	}
	if cfg.Net == nil {
		return nil, nil, "", fmt.Errorf("mpisim: nil network model")
	}
	if len(programs) != cfg.Ranks {
		return nil, nil, "", fmt.Errorf("mpisim: %d programs for %d ranks", len(programs), cfg.Ranks)
	}
	if cfg.EagerMaxOutstanding < 0 {
		return nil, nil, "", fmt.Errorf("mpisim: negative eager buffer bound %d", cfg.EagerMaxOutstanding)
	}
	if !(cfg.CoreBandwidth >= 0) {
		return nil, nil, "", fmt.Errorf("mpisim: negative or NaN core bandwidth %g", cfg.CoreBandwidth)
	}
	if cfg.Trace < TraceFull || cfg.Trace > TraceOff {
		return nil, nil, "", fmt.Errorf("mpisim: unknown trace mode %d", int(cfg.Trace))
	}
	if cfg.Shards < 0 {
		return nil, nil, "", fmt.Errorf("mpisim: negative shard count %d", cfg.Shards)
	}
	if cfg.NoiseFactory != nil && cfg.Noise == nil {
		return nil, nil, "", fmt.Errorf("mpisim: NoiseFactory set without Noise")
	}
	var computeSegs int32 = 1
	if cfg.Noise != nil {
		computeSegs = 2
	}
	lockReason = lockstepConfigReason(cfg)
	if mode == engineOnly {
		lockReason = "event engine requested"
	}
	var pairs *pairCheck // nil once the run is off the solver
	var ep []epochMsg
	if lockReason == "" {
		pairs = newPairCheck(cfg.Ranks, mode == compileLockstep)
	}
	shapes = make([]rankShape, cfg.Ranks)
	needMem := false
	for rnk, p := range programs {
		sh := &shapes[rnk]
		var reqs, recvs, sends int32 // of the current epoch
		// lk steps the lockstep epoch shape (shapeNext), and ep and cp
		// collect the epoch's messages and Compute for the pairing check.
		var cp Compute
		lk := shapeIdle
		if pairs == nil {
			lk = shapeOff
		}
		ep = ep[:0]
		for pc, op := range p {
			switch op := op.(type) {
			case Isend:
				if op.To < 0 || op.To >= cfg.Ranks {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d sends to invalid rank %d", rnk, pc, op.To)
				}
				if op.To == rnk {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d sends to itself", rnk, pc)
				}
				if op.Bytes < 0 {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d negative message size", rnk, pc)
				}
				reqs++
				sends++
				sh.segments++
				if lk = shapeNext[lk&3][kindIsend]; lk != shapeOff {
					ep = append(ep, epochMsg{tag: op.Tag, bytes: op.Bytes, peer: int32(op.To)})
				}
			case Irecv:
				if op.From < 0 || op.From >= cfg.Ranks {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d receives from invalid rank %d", rnk, pc, op.From)
				}
				if op.From == rnk {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d receives from itself", rnk, pc)
				}
				if op.Bytes < 0 {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d negative message size", rnk, pc)
				}
				reqs++
				recvs++
				if lk = shapeNext[lk&3][kindIrecv]; lk != shapeOff {
					ep = append(ep, epochMsg{tag: op.Tag, peer: int32(op.From), recv: true})
				}
			case Compute:
				if !sim.NonNegative(op.Duration) || !sim.NonNegative(op.MemBytes) {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d negative or non-finite compute", rnk, pc)
				}
				lk = shapeNext[lk&3][kindCompute]
				if op.MemBytes > 0 {
					needMem, lk = true, shapeOff
				}
				cp = op
				sh.segments += computeSegs
			case Delay:
				if !sim.NonNegative(op.Duration) {
					return nil, nil, "", fmt.Errorf("mpisim: rank %d op %d negative or non-finite delay", rnk, pc)
				}
				sh.segments++
				if lk = shapeNext[lk&3][kindDelay]; lk != shapeOff && pairs.sched != nil {
					pairs.sched.addDelay(rnk, sh.steps, op)
				}
			case Waitall:
				sh.window = max(sh.window, reqs)
				sh.recvs = max(sh.recvs, recvs)
				sh.sends = max(sh.sends, sends)
				reqs, recvs, sends = 0, 0, 0
				if lk = shapeNext[lk&3][kindWaitall]; lk != shapeOff && !pairs.endEpoch(rnk, ep, sh.steps, cp, op.Step) {
					lk = shapeOff
				}
				ep = ep[:0]
				sh.segments++
				sh.steps++
			}
		}
		if pairs != nil {
			if lk == shapeOff {
				lockReason = lockFault(rnk, p)
			} else {
				lockReason = pairs.end(rnk, p)
			}
			if lockReason != "" {
				pairs = nil
			}
		}
		// A trailing epoch with no Waitall still posts its requests.
		sh.window = max(sh.window, reqs)
		sh.recvs = max(sh.recvs, recvs)
	}
	if needMem {
		if cfg.SocketOf == nil {
			return nil, nil, "", fmt.Errorf("mpisim: memory-bound compute requires SocketOf")
		}
		if !(cfg.SocketBandwidth > 0) {
			return nil, nil, "", fmt.Errorf("mpisim: memory-bound compute requires positive SocketBandwidth")
		}
	}
	if pairs != nil {
		sched = pairs.sched
	}
	return shapes, sched, lockReason, nil
}

// socket returns the rank group's bandwidth resource, materializing it
// on first touch: only sockets that actually run memory-bound phases
// exist, so socket state follows the active placement, not the machine
// size.
func (s *simulation) socket(id int) *memband.Socket {
	if sk, ok := s.sockets[id]; ok {
		return sk
	}
	sk, err := memband.NewSocketCapped(s.engine, s.cfg.SocketBandwidth, s.cfg.CoreBandwidth)
	if err != nil {
		panic(err) // validated in Run
	}
	if s.sockets == nil {
		s.sockets = make(map[int]*memband.Socket)
	}
	s.sockets[id] = sk
	return sk
}

// Typed event callbacks. These are package-level functions so that
// scheduling them through ScheduleCall allocates nothing; the argument is
// always the *rank (or *eagerMsg) whose scratch fields carry the state a
// closure would otherwise have captured.

func rankExecCall(arg any) { arg.(*rank).exec() }

func rankDelayDone(arg any) {
	r := arg.(*rank)
	r.addSeg(trace.Delay, r.phaseStart, r.phaseEnd, r.phaseStep)
	r.state = stRunning
	r.exec()
}

func rankSendOverheadDone(arg any) {
	r := arg.(*rank)
	r.addSeg(trace.Overhead, r.phaseStart, r.phaseEnd, -1)
	r.exec()
}

func rankComputeDone(arg any) {
	r := arg.(*rank)
	s := r.s
	execEnd := s.engine.Now()
	r.addSeg(trace.Exec, r.phaseStart, execEnd, r.phaseStep)
	var noise sim.Time
	if s.cfg.Noise != nil {
		noise = s.cfg.Noise(r.id, r.phaseStep)
		if noise < 0 {
			noise = 0
		}
	}
	if noise > 0 {
		r.phaseStart = execEnd
		r.phaseEnd = execEnd + noise
		s.engine.ScheduleCall(r.phaseEnd, rankNoiseDone, r)
		return
	}
	r.state = stRunning
	r.exec()
}

func rankNoiseDone(arg any) {
	r := arg.(*rank)
	r.addSeg(trace.Noise, r.phaseStart, r.phaseEnd, r.phaseStep)
	r.state = stRunning
	r.exec()
}

// memPhaseDone runs when a memory-bound phase's streaming completes; the
// fixed compute floor (if any) still follows before the phase ends.
func memPhaseDone(arg any) {
	r := arg.(*rank)
	if r.memFloor > 0 {
		r.s.engine.AfterCall(r.memFloor, rankComputeDone, r)
		return
	}
	rankComputeDone(r)
}

func deliverEagerCall(arg any) {
	msg := arg.(*eagerMsg)
	msg.s.deliverEager(msg)
}

func progressCheck(arg any) {
	r := arg.(*rank)
	if r.state == stWaiting {
		r.progressWait()
	}
}

// exec advances the rank's program until it blocks or finishes.
func (r *rank) exec() {
	s := r.s
	for r.pc < len(r.prog) {
		switch op := r.prog[r.pc].(type) {
		case Compute:
			r.pc++
			r.startCompute(op)
			return
		case Delay:
			r.pc++
			r.phaseStart = s.engine.Now()
			r.phaseEnd = r.phaseStart + op.Duration
			r.phaseStep = op.Step
			r.state = stComputing
			s.engine.ScheduleCall(r.phaseEnd, rankDelayDone, r)
			return
		case Isend:
			r.pc++
			if cost := r.postSend(op); cost > 0 {
				r.phaseStart = s.engine.Now()
				r.phaseEnd = r.phaseStart + cost
				s.engine.ScheduleCall(r.phaseEnd, rankSendOverheadDone, r)
				return
			}
		case Irecv:
			r.pc++
			r.postRecv(op)
		case Waitall:
			r.pc++
			r.enterWait(op)
			return
		default:
			panic(fmt.Sprintf("mpisim: rank %d: unknown op %T", r.id, op))
		}
	}
	r.state = stDone
}

// startCompute runs an execution phase: fixed-duration, memory-bound, or
// both, plus injected noise (applied in rankComputeDone).
func (r *rank) startCompute(op Compute) {
	s := r.s
	r.phaseStart = s.engine.Now()
	r.phaseStep = op.Step
	r.state = stComputing

	if op.MemBytes > 0 {
		r.memFloor = op.Duration
		sk := s.socket(s.cfg.SocketOf(r.id))
		sk.StartCall(op.MemBytes, memPhaseDone, r)
		return
	}
	s.engine.ScheduleCall(r.phaseStart+op.Duration, rankComputeDone, r)
}

// postSend posts a non-blocking send and returns the CPU overhead the
// sender pays before executing its next operation.
func (r *rank) postSend(op Isend) sim.Time {
	s := r.s
	now := s.engine.Now()
	proto := s.cfg.Net.ProtocolFor(r.id, op.To, op.Bytes)
	if proto == netmodel.Eager && s.cfg.EagerMaxOutstanding > 0 &&
		s.eager.count(r.id-s.rankLo, op.To) >= s.cfg.EagerMaxOutstanding {
		// Finite eager buffers exhausted: this message behaves like a
		// rendezvous transfer (the paper's footnote 1).
		proto = netmodel.Rendezvous
	}
	req := r.newRequest(true, op.To, op.Bytes, op.Tag, proto)
	oSend := s.cfg.Net.SendOverhead(r.id, op.To, op.Bytes)

	if proto == netmodel.Eager {
		if s.eager.active() {
			s.eager.inc(r.id-s.rankLo, op.To)
		}
		// The send completes locally once the overhead is paid.
		s.complete(req, now+oSend)
		// Data arrives at the receiver one transfer later.
		arriveAt := now + oSend + s.cfg.Net.Transfer(r.id, op.To, op.Bytes)
		if s.shard != nil && (op.To < s.rankLo || op.To >= s.rankHi) {
			// Cross-shard: hand the message to the coordinator, which
			// stamps it into the destination shard's queue at the next
			// horizon. Bandwidth charging across a cut is a plan
			// ineligibility, so no chargeComm is owed here.
			s.shard.outbox = append(s.shard.outbox,
				outMsg{from: r.id, to: op.To, tag: op.Tag, bytes: op.Bytes, arriveAt: arriveAt})
			return oSend
		}
		msg := s.newMsg(r.id, op.To, op.Tag, op.Bytes, arriveAt)
		s.chargeComm(r.id, op.To, op.Bytes)
		s.engine.ScheduleCall(msg.arriveAt, deliverEagerCall, msg)
		return oSend
	}

	// Rendezvous: announce the send to the receiver's match list (RTS).
	s.matchRTS(req)
	return oSend
}

// postRecv posts a non-blocking receive. Unexpected eager data on the
// channel is preferred over a queued rendezvous handshake (see "Matching
// order" in the package comment); with neither, the receive waits in the
// match list.
func (r *rank) postRecv(op Irecv) {
	s := r.s
	req := r.newRequest(false, op.From, op.Bytes, op.Tag, 0)
	if rec, ok := r.recs.take(recEager, op.From, op.Tag); ok {
		s.eagerDec(op.From, r.id)
		s.complete(req, s.engine.Now()+s.cfg.Net.RecvOverhead(op.From, r.id, rec.bytes))
		return
	}
	if rec, ok := r.recs.take(recRTS, op.From, op.Tag); ok {
		s.link(rec.req, req)
		return
	}
	r.recs = append(r.recs, matchRec{req: req, tag: op.Tag, peer: int32(op.From), kind: recPosted})
}

// deliverEager runs at an eager message's arrival time at the receiver.
// The message object goes back to the pool either way: unmatched data
// waits as a record.
func (s *simulation) deliverEager(msg *eagerMsg) {
	from, to, tag, bytes := msg.from, msg.to, msg.tag, msg.bytes
	s.freeMsgs = append(s.freeMsgs, msg)
	r := &s.ranks[to-s.rankLo]
	if rec, ok := r.recs.take(recPosted, from, tag); ok {
		s.eagerDec(from, to)
		s.complete(rec.req, s.engine.Now()+s.cfg.Net.RecvOverhead(from, to, bytes))
		return
	}
	r.recs = append(r.recs, matchRec{tag: tag, bytes: bytes, peer: int32(from), kind: recEager})
}

// matchRTS tries to match a freshly posted rendezvous send against the
// receiver's posted receives; otherwise it queues the handshake.
func (s *simulation) matchRTS(send *request) {
	r := &s.ranks[send.peer-s.rankLo]
	if rec, ok := r.recs.take(recPosted, send.owner.id, send.tag); ok {
		s.link(send, rec.req)
		return
	}
	r.recs = append(r.recs, matchRec{req: send, tag: send.tag, peer: int32(send.owner.id), kind: recRTS})
}

// link connects a rendezvous send to its matching receive and updates the
// sender's gate.
func (s *simulation) link(send, recv *request) {
	send.match = recv
	recv.match = send
	owner := send.owner
	switch s.cfg.Progress {
	case GatedRendezvous:
		if owner.state == stWaiting {
			owner.gateRemaining--
			if owner.gateRemaining == 0 {
				owner.startRendezvousTransfers()
			}
		}
		// If the owner has not entered Waitall yet, enterWait will count
		// unmatched sends and open the gate itself.
	case IndependentRendezvous:
		if owner.state == stWaiting {
			s.startTransfer(send)
		}
	}
}

// startRendezvousTransfers begins every matched, unstarted rendezvous
// transfer of the rank's current epoch (gate open).
func (r *rank) startRendezvousTransfers() {
	for i := range r.reqs[:r.npend] {
		if req := &r.reqs[i]; req.isSend && req.proto == netmodel.Rendezvous && req.match != nil && !req.transferStarted {
			r.s.startTransfer(req)
		}
	}
}

// startTransfer schedules the wire transfer of a matched rendezvous send,
// completing both sides.
func (s *simulation) startTransfer(send *request) {
	if send.transferStarted {
		return
	}
	send.transferStarted = true
	now := s.engine.Now()
	s.chargeComm(send.owner.id, send.peer, send.bytes)
	end := now + s.cfg.Net.Transfer(send.owner.id, send.peer, send.bytes)
	oRecv := s.cfg.Net.RecvOverhead(send.owner.id, send.peer, send.bytes)
	s.complete(send, end)
	s.complete(send.match, end+oRecv)
}

// nopPhase is the no-op completion for fire-and-forget bandwidth charges.
func nopPhase(any) {}

// chargeComm accounts a message's payload as memory traffic on the
// sender's (read) and receiver's (write) sockets. The load phases are
// fire-and-forget: they steal bandwidth from concurrent execution phases
// but never block communication progress.
func (s *simulation) chargeComm(from, to, bytes int) {
	if !s.cfg.ChargeCommBandwidth || s.cfg.SocketOf == nil || s.cfg.SocketBandwidth <= 0 || bytes <= 0 {
		return
	}
	// The payload crosses the memory interface on both endpoints (read
	// out on the sender, write in on the receiver) — also when the two
	// ranks share a socket, where it is copied out and back in.
	s.socket(s.cfg.SocketOf(from)).StartCall(float64(bytes), nopPhase, nil)
	s.socket(s.cfg.SocketOf(to)).StartCall(float64(bytes), nopPhase, nil)
}

// complete marks a request done at the given time, updates its owner's
// progress counters, and schedules a progress check for when the
// completion takes effect.
func (s *simulation) complete(req *request, at sim.Time) {
	if req.done {
		panic(fmt.Sprintf("mpisim: double completion of request on rank %d", req.owner.id))
	}
	req.done = true
	owner := req.owner
	owner.outstanding--
	if at > owner.watermark {
		owner.watermark = at
	}
	s.engine.ScheduleCall(at, progressCheck, owner)
}

// enterWait begins a Waitall over all pending requests.
func (r *rank) enterWait(op Waitall) {
	s := r.s
	r.state = stWaiting
	r.waitStep = op.Step
	r.waitEntry = s.engine.Now()

	if s.cfg.Progress == GatedRendezvous {
		r.gateRemaining = 0
		for i := range r.reqs[:r.npend] {
			if req := &r.reqs[i]; req.isSend && req.proto == netmodel.Rendezvous && req.match == nil {
				r.gateRemaining++
			}
		}
		if r.gateRemaining == 0 {
			r.startRendezvousTransfers()
		}
	} else {
		for i := range r.reqs[:r.npend] {
			if req := &r.reqs[i]; req.isSend && req.proto == netmodel.Rendezvous && req.match != nil {
				s.startTransfer(req)
			}
		}
	}
	r.progressWait()
}

// progressWait finishes the Waitall once every pending request of the
// epoch has completed and the latest completion time has been reached.
// The check is O(1): complete() maintains the outstanding counter and
// the completion watermark, so no rescan of the pending list is needed.
// It is idempotent: completion events may trigger it multiple times.
func (r *rank) progressWait() {
	if r.state != stWaiting {
		return
	}
	if r.outstanding > 0 {
		return // a future completion event will re-invoke us
	}
	now := r.s.engine.Now()
	if r.watermark > now {
		// All completion times are known but the latest lies in the
		// future (e.g. a receive overhead tail); the event scheduled by
		// complete() at that time re-invokes us.
		return
	}
	r.addSeg(trace.Wait, r.waitEntry, now, r.waitStep)
	if r.s.cfg.OnWait != nil && now > r.waitEntry {
		if sh := r.s.shard; sh != nil {
			// Shard goroutines must not call user code concurrently;
			// the coordinator merges and fires these between windows.
			sh.waits = append(sh.waits, waitRec{rank: r.id, step: r.waitStep, start: r.waitEntry, end: now})
		} else {
			r.s.cfg.OnWait(r.id, r.waitStep, r.waitEntry, now)
		}
	}
	r.endStep(r.waitStep, now)
	// The epoch is over: both sides of every match have completed, so
	// the next epoch can reuse the window.
	r.npend = 0
	r.watermark = 0
	r.state = stRunning
	r.exec()
}

func (st rankState) String() string {
	switch st {
	case stRunning:
		return "running"
	case stComputing:
		return "computing"
	case stWaiting:
		return "waiting"
	case stDone:
		return "done"
	default:
		return fmt.Sprintf("rankState(%d)", int(st))
	}
}

// OpName returns the diagnostic name of an op's concrete type ("mpisim.
// Compute", "mpisim.Isend", ...) through a typed switch — no reflection
// on the hot path of program statistics.
func OpName(op Op) string {
	switch op.(type) {
	case Compute:
		return "mpisim.Compute"
	case Delay:
		return "mpisim.Delay"
	case Isend:
		return "mpisim.Isend"
	case Irecv:
		return "mpisim.Irecv"
	case Waitall:
		return "mpisim.Waitall"
	default:
		return fmt.Sprintf("%T", op)
	}
}

// CountOps returns the number of operations of each concrete type in a
// program, for diagnostics and tests.
func CountOps(p Program) map[string]int {
	counts := make(map[string]int, 5)
	for _, op := range p {
		counts[OpName(op)]++
	}
	return counts
}
