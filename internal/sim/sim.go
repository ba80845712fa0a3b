// Package sim implements the discrete-event simulation engine that drives
// the message-passing simulator. It provides a virtual clock, an event
// queue with deterministic tie-breaking, and an Engine loop.
//
// Determinism matters here: two events scheduled for the same virtual time
// must always execute in the same order, or otherwise identical runs could
// produce different message-matching orders and different timelines. Ties
// are broken by insertion sequence number (FIFO among equal-time events).
//
// # Queue layout
//
// The queue is a 4-ary implicit heap of (time, sequence, *Event) values,
// sifted by moving a hole rather than by swapping. Large simulations keep
// hundreds of thousands of events pending, so a heap of bare pointers
// would dereference two cold Events per comparison; with the keys inline
// a sift touches only the heap array, and the wider fan-out halves its
// depth, with the four children sharing one or two cache lines. The array
// grows by doubling: an outgrown array stays live until the next GC cycle,
// and append's gentler growth for large slices would leave several of them.
//
// Events scheduled at exactly Now() skip the heap through a FIFO lane. A
// heap entry at Now() was scheduled before the clock got there, so it runs
// before every lane entry; the clock advances only once the lane is empty.
//
// An event due at the time of the most recent heap push, while that event
// (the tail) is still queued, links behind it instead: one heap entry then
// holds a run of events under the run head's key, and pop hands them out
// one by one, keeping the entry at the root until the run is empty. Every
// event scheduled in between went to the heap at another time or to the
// lane at an earlier Now(), so nothing orders between run members; lane
// entries at that time can only be scheduled once the clock reaches it.
//
// # Allocation discipline
//
// The engine is the innermost loop of every simulation, so it recycles
// Event objects on a per-engine free list: in steady state, scheduling
// and executing an event performs no heap allocation. The typed-callback
// form ScheduleCall(at, fn, arg) passes a pointer-shaped argument to a
// plain function, which lets hot callers avoid allocating a capture
// closure per event; Schedule(at, func()) remains as a thin wrapper for
// call sites where a closure is idiomatic and cold.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is virtual simulation time in seconds.
type Time float64

// Infinity is a time later than any event the engine will ever execute.
const Infinity Time = Time(math.MaxFloat64)

// Seconds converts a plain float64 of seconds to a Time.
func Seconds(s float64) Time { return Time(s) }

// Micro converts microseconds to Time.
func Micro(us float64) Time { return Time(us * 1e-6) }

// Milli converts milliseconds to Time.
func Milli(ms float64) Time { return Time(ms * 1e-3) }

// FormatDuration renders a Time in time.Duration syntax rounded to
// nanoseconds ("2.4µs", "10ms") — the spelling the flag parsers accept
// back, shared by every layer that renders re-parseable specs.
func FormatDuration(t Time) string {
	return time.Duration(math.Round(float64(t) * 1e9)).String()
}

// NonNegative reports whether x is a finite number >= 0. Validators use
// it instead of x < 0, which lets NaN through, and it also rejects both
// infinities.
func NonNegative[T ~float64](x T) bool { return x >= 0 && !math.IsInf(float64(x), 1) }

// Positive reports whether x is a finite number > 0.
func Positive[T ~float64](x T) bool { return x > 0 && !math.IsInf(float64(x), 1) }

// Micros reports t in microseconds.
func (t Time) Micros() float64 { return float64(t) * 1e6 }

// Millis reports t in milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e3 }

// Event is a scheduled action, owned by the engine's free list.
//
// An *Event returned by Schedule/ScheduleCall is valid for Cancel until
// the event executes. Once it has run, the engine recycles the object
// for a later scheduling call, so handles must not be retained past the
// event's execution time (cancelling a stale handle could cancel an
// unrelated, later event). Completion paths that may race — like a
// resource cancelling its own pending timer — must therefore drop their
// handle when the event fires, which is the natural shape anyway.
type Event struct {
	at     Time
	callFn func(any) // callClosure for the closure form (Schedule)
	arg    any       // the func() itself for the closure form
	next   *Event    // the rest of this event's run
	dead   bool
}

// entry is one heap slot: the event's ordering key, inline, so sifts
// compare without dereferencing the event.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// arity is the heap's fan-out.
const arity = 4

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.dead }

// run invokes the event's action.
func (e *Event) run() { e.callFn(e.arg) }

// callClosure is the typed callback behind Schedule's closure form: a
// func value is pointer-shaped, so storing it in arg allocates nothing.
func callClosure(fn any) { fn.(func())() }

// Engine owns the virtual clock, the pending-event heap, the same-time
// lane and the event free list. The zero value is ready to use.
type Engine struct {
	now      Time
	heap     []entry
	tail     *Event  // the last event of the latest heap push's run, while queued
	chained  int     // queued events linked behind a run head
	lane     []entry // events at now, FIFO from laneHead; stale slots hold only pooled events
	laneHead int
	free     []*Event
	seq      uint64
	executed uint64
	running  bool
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events still scheduled (including
// cancelled events not yet popped).
func (e *Engine) Pending() int { return len(e.heap) + e.chained + len(e.lane) - e.laneHead }

// alloc takes an Event from the free list, or allocates a fresh one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.dead = false
		return ev
	}
	return &Event{}
}

// recycle returns an executed or discarded event to the free list,
// clearing the action references so the pool does not retain garbage.
func (e *Engine) recycle(ev *Event) {
	ev.callFn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Schedule registers fn to run at virtual time at. Scheduling an event in
// the past (before Now) panics: it would mean causality violation in the
// simulation logic, which is always a programming error worth failing
// loudly for.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	ev := e.schedule(at)
	ev.callFn, ev.arg = callClosure, fn
	return ev
}

// ScheduleCall registers fn(arg) to run at virtual time at. It is the
// allocation-free form of Schedule: with a pooled Event, a package-level
// fn and a pointer-shaped arg, scheduling performs no heap allocation,
// where a capturing closure passed to Schedule would allocate once per
// event. The same past-time rule as Schedule applies.
func (e *Engine) ScheduleCall(at Time, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	ev := e.schedule(at)
	ev.callFn, ev.arg = fn, arg
	return ev
}

// schedule allocates and enqueues a bare event at the given time: in the
// lane at Now(), behind the tail at its time, else as a new heap entry.
// A NaN time compares false both ways and is refused as past.
func (e *Engine) schedule(at Time) *Event {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	switch {
	case at == e.now:
		if len(e.lane) == cap(e.lane) {
			e.lane = doubled(e.lane)
		}
		e.lane = append(e.lane, entry{at, e.seq, ev})
	case e.tail != nil && e.tail.at == at:
		e.tail.next, e.tail = ev, ev
		e.chained++
	default:
		e.push(entry{at, e.seq, ev})
		e.tail = ev
	}
	e.seq++
	return ev
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, fn func()) *Event {
	if !(delay >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// AfterCall schedules fn(arg) to run delay after the current time — the
// typed-callback counterpart of After.
func (e *Engine) AfterCall(delay Time, fn func(any), arg any) *Event {
	if !(delay >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleCall(e.now+delay, fn, arg)
}

// Cancel removes a scheduled event. Cancelling an already-cancelled
// event (or nil) is a harmless no-op, which keeps caller logic simple
// when races between completion paths occur. See the Event documentation
// for the handle-validity rule: cancel only events that have not yet
// executed.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	// Leave it queued in the heap or the lane; the run loop discards dead
	// events when it reaches them and recycles them.
}

// Run executes events in (time, insertion) order until the queue drains.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil executes events with time <= limit, then stops. Events beyond
// the limit stay queued. It returns the virtual time of the last executed
// event (or the starting time if nothing ran).
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run re-entered; event handlers must not call Run")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.now <= limit {
		e.drainLane()
	}
	// Drain the lane after every heap event, cancelled ones included.
	for ; len(e.heap) > 0 && e.heap[0].at <= limit; e.drainLane() {
		top := e.pop()
		if top.dead {
			e.recycle(top)
			continue
		}
		if top.at < e.now {
			panic(fmt.Sprintf("sim: event time %v before clock %v", top.at, e.now))
		}
		e.now = top.at
		e.executed++
		top.run()
		// Recycle only after the action ran: the action may schedule new
		// events, which must not reuse this object mid-flight.
		e.recycle(top)
	}
	return e.now
}

// drainLane runs lane events until the lane is empty or the heap's top is
// due now, which orders it before every lane entry.
func (e *Engine) drainLane() {
	for e.laneFirst() {
		ev := e.take()
		if !ev.dead {
			e.executed++
			ev.run()
		}
		e.recycle(ev)
	}
}

// laneFirst reports whether the next queued event is the lane's head.
func (e *Engine) laneFirst() bool {
	return e.laneHead < len(e.lane) && (len(e.heap) == 0 || e.heap[0].at != e.now)
}

// take removes the next queued event in (time, sequence) order, resetting
// the lane once it drains.
func (e *Engine) take() *Event {
	if !e.laneFirst() {
		return e.pop()
	}
	ev := e.lane[e.laneHead].ev
	if e.laneHead++; e.laneHead == len(e.lane) {
		e.lane, e.laneHead = e.lane[:0], 0
	}
	return ev
}

// NextEventTime returns the scheduled time of the earliest live pending
// event, or false when no live event is queued. Cancelled events at the
// head of the queue are discarded on the way — the run loop would skip
// them anyway. The parallel shard driver polls this between execution
// windows to compute safe lookahead horizons.
func (e *Engine) NextEventTime() (Time, bool) {
	for e.Pending() > 0 {
		if e.laneFirst() {
			if !e.lane[e.laneHead].ev.dead {
				return e.now, true
			}
		} else if top := e.heap[0]; !top.ev.dead {
			return top.at, true
		}
		e.recycle(e.take())
	}
	return 0, false
}

// Step executes exactly one live event, if any, and reports whether an
// event ran. Useful for fine-grained testing; handlers must not call it.
func (e *Engine) Step() bool {
	if e.running {
		panic("sim: Step re-entered; event handlers must not call Step")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Pending() > 0 {
		top := e.take()
		if top.dead {
			e.recycle(top)
			continue
		}
		if top.at < e.now {
			panic(fmt.Sprintf("sim: event time %v before clock %v", top.at, e.now))
		}
		e.now = top.at
		e.executed++
		top.run()
		e.recycle(top)
		return true
	}
	return false
}

// less orders entries by time, then by insertion sequence (FIFO).
func less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts x, moving the hole up from the new leaf until x fits.
func (e *Engine) push(x entry) {
	i := len(e.heap)
	if i == cap(e.heap) {
		e.heap = doubled(e.heap)
	}
	e.heap = e.heap[:i+1]
	h := e.heap
	for i > 0 {
		p := (i - 1) / arity
		if !less(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes the earliest event. The rest of a run stays at the root
// under its key; a run's last event leaves it, and the hole moves down
// from the root until the former last entry fits.
func (e *Engine) pop() *Event {
	h := e.heap
	top, last := h[0].ev, len(h)-1
	if top == e.tail {
		e.tail = nil
	}
	// Test chained first: without runs, pop never touches the cold event.
	if e.chained > 0 && top.next != nil {
		h[0].ev, top.next = top.next, nil
		e.chained--
		return top
	}
	x := h[last]
	h[last] = entry{} // release the slot's reference for the pool
	h = h[:last]
	e.heap = h
	i := 0
	for c := 1; c < last; c = arity*i + 1 {
		m := c
		for j := c + 1; j < min(c+arity, last); j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if last > 0 {
		h[i] = x
	}
	return top
}

// doubled copies q into an array of twice its capacity (at least 64).
func doubled(q []entry) []entry {
	return append(make([]entry, 0, max(2*len(q), 64)), q...)
}
