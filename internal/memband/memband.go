// Package memband models the shared memory-bandwidth bottleneck of a
// multicore socket as a processor-sharing resource.
//
// A memory-bound execution phase (e.g., one STREAM-triad or LBM sweep)
// must move a fixed volume of data through its socket's memory interface.
// While k phases are active on the same socket, each progresses at rate
// B/k, where B is the socket bandwidth. When phases start or finish, the
// rates of all concurrent phases change, and their completion times are
// re-integrated.
//
// This is the mechanism behind the paper's motivating observation (Fig. 1):
// when ranks desynchronize, fewer phases overlap on the socket at any
// moment, each phase runs faster, and computation automatically overlaps
// with the waiting of other ranks — noise acting as an accelerator.
package memband

import (
	"fmt"

	"repro/internal/sim"
)

// Phase is one active memory-bound execution phase on a socket. The
// completion action is stored in either closure form (onDone) or typed-
// callback form (callFn + arg); see Socket.StartCall.
//
// Phases are pooled per socket: a *Phase handle is valid until the
// phase's completion action has run, after which the socket may reuse
// the object for a later Start. Don't retain handles past completion
// (the same rule as the engine's Event handles).
type Phase struct {
	remaining float64 // bytes still to transfer
	onDone    func()
	callFn    func(any)
	arg       any
	socket    *Socket
	done      bool
}

// fire invokes the phase's completion action in whichever form it was
// registered.
func (p *Phase) fire() {
	if p.callFn != nil {
		p.callFn(p.arg)
		return
	}
	p.onDone()
}

// Socket is the processor-sharing bandwidth resource of one socket.
//
// The active set is a slice, not a map: iteration order is then the
// phase start order, which is deterministic. (Completion order among
// phases finishing at the same instant never affects simulation
// results — equal remaining volumes reach zero at the same virtual time
// regardless of traversal — but deterministic traversal keeps the event
// sequence reproducible byte for byte.)
type Socket struct {
	engine    *sim.Engine
	bandwidth float64 // bytes per second, aggregate
	phaseCap  float64 // per-phase bandwidth ceiling; 0 = none
	active    []*Phase
	finished  []*Phase   // scratch for complete(), reused across calls
	free      []*Phase   // phase pool; see the Phase handle rule
	lastT     sim.Time   // virtual time of the last re-integration
	next      *sim.Event // pending earliest-completion event
}

// newPhase takes a phase from the pool, or allocates a fresh one.
func (s *Socket) newPhase() *Phase {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		*p = Phase{socket: s}
		return p
	}
	return &Phase{socket: s}
}

// recycle returns a completed phase to the pool, clearing the action
// references so the pool does not retain garbage. The done flag stays
// set until reuse, so a stale handle still reads Done() == true.
func (s *Socket) recycle(p *Phase) {
	p.onDone = nil
	p.callFn = nil
	p.arg = nil
	s.free = append(s.free, p)
}

// NewSocketCapped creates a socket whose individual phases are
// additionally limited to perPhaseCap bytes per second (0 = unlimited).
// The cap models the fact that a single core cannot saturate the socket's
// memory interface: the paper's Fig. 1c (one process per node) runs at
// roughly 1/6 of the saturated bandwidth.
func NewSocketCapped(engine *sim.Engine, bandwidth, perPhaseCap float64) (*Socket, error) {
	if engine == nil {
		return nil, fmt.Errorf("memband: nil engine")
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("memband: non-positive bandwidth %g", bandwidth)
	}
	if perPhaseCap < 0 {
		return nil, fmt.Errorf("memband: negative per-phase cap %g", perPhaseCap)
	}
	return &Socket{
		engine:    engine,
		bandwidth: bandwidth,
		phaseCap:  perPhaseCap,
	}, nil
}

// rate returns the per-phase progress rate with k concurrent phases.
func (s *Socket) rate(k int) float64 {
	r := s.bandwidth / float64(k)
	if s.phaseCap > 0 && r > s.phaseCap {
		r = s.phaseCap
	}
	return r
}

// socketComplete adapts Socket.complete to the engine's typed-callback
// form, so rescheduling does not allocate a method-value closure.
func socketComplete(arg any) { arg.(*Socket).complete() }

// Start begins a memory-bound phase that must move the given number of
// bytes. onDone runs (as a simulation event) when the phase completes.
// A non-positive volume completes immediately at the current time.
func (s *Socket) Start(bytes float64, onDone func()) *Phase {
	if onDone == nil {
		panic("memband: Start with nil onDone")
	}
	p := s.newPhase()
	p.remaining = bytes
	p.onDone = onDone
	return s.start(p, bytes)
}

// StartCall is the typed-callback form of Start: fn(arg) runs when the
// phase completes. With a package-level fn and pointer-shaped arg this
// registers the completion without allocating a capture closure, which
// matters to memory-bound simulations starting one phase per rank per
// time step.
func (s *Socket) StartCall(bytes float64, fn func(any), arg any) *Phase {
	if fn == nil {
		panic("memband: StartCall with nil fn")
	}
	p := s.newPhase()
	p.remaining = bytes
	p.callFn = fn
	p.arg = arg
	return s.start(p, bytes)
}

func (s *Socket) start(p *Phase, bytes float64) *Phase {
	if bytes <= 0 {
		p.done = true
		s.engine.AfterCall(0, firePhase, p)
		return p
	}
	s.integrate()
	s.active = append(s.active, p)
	s.reschedule()
	return p
}

// firePhase adapts Phase.fire to the engine's typed-callback form (the
// zero-volume immediate-completion path) and recycles the phase.
func firePhase(arg any) {
	p := arg.(*Phase)
	p.fire()
	p.socket.recycle(p)
}

// integrate advances all active phases' remaining work from lastT to now
// at the current shared rate.
func (s *Socket) integrate() {
	now := s.engine.Now()
	if k := len(s.active); k > 0 {
		dt := float64(now - s.lastT)
		if dt > 0 {
			rate := s.rate(k)
			for _, p := range s.active {
				p.remaining -= rate * dt
				if p.remaining < 0 {
					p.remaining = 0
				}
			}
		}
	}
	s.lastT = now
}

// reschedule cancels the pending completion event and schedules a new one
// for the phase that will finish first under the current sharing factor.
func (s *Socket) reschedule() {
	if s.next != nil {
		s.engine.Cancel(s.next)
		s.next = nil
	}
	k := len(s.active)
	if k == 0 {
		return
	}
	first := s.active[0]
	for _, p := range s.active[1:] {
		if p.remaining < first.remaining {
			first = p
		}
		// Ties keep the earliest-started phase; equal remaining volumes
		// finish at the same virtual time either way and each gets its
		// own completion pass.
	}
	perPhaseRate := s.rate(k)
	dt := sim.Time(first.remaining / perPhaseRate)
	s.next = s.engine.AfterCall(dt, socketComplete, s)
}

// complete fires when the earliest phase(s) reach zero remaining work.
func (s *Socket) complete() {
	s.next = nil
	s.integrate()
	// A phase is done when its remaining volume is zero up to float
	// roundoff. The threshold must scale with the clock's resolution:
	// once now+dt == now in float64, the event loop could no longer
	// advance virtual time, so any phase whose remaining time is below
	// that resolution has to finish now.
	resolution := float64(s.lastT)*1e-12 + 1e-15 // seconds
	eps := s.rate(1) * resolution                // bytes, at the fastest possible rate
	if eps < 1e-12 {
		eps = 1e-12
	}
	s.finished = s.finished[:0]
	keep := s.active[:0]
	for _, p := range s.active {
		if p.remaining <= eps {
			p.done = true
			s.finished = append(s.finished, p)
		} else {
			keep = append(keep, p)
		}
	}
	for i := len(keep); i < len(s.active); i++ {
		s.active[i] = nil // release compacted-away slots
	}
	s.active = keep
	s.reschedule()
	// Run callbacks after bookkeeping so a callback that starts a new
	// phase sees a consistent resource state; recycle each phase after
	// its action has run (handles are valid until completion).
	for i, p := range s.finished {
		s.finished[i] = nil
		p.fire()
		s.recycle(p)
	}
}

// Done reports whether the phase has completed.
func (p *Phase) Done() bool { return p.done }
