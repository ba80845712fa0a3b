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
	"sort"
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
	fn     func()    // closure form (Schedule)
	callFn func(any) // typed-callback form (ScheduleCall)
	arg    any
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

// At returns the event's scheduled virtual time.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.dead }

// run invokes the event's action in whichever form it was scheduled.
func (e *Event) run() {
	if e.callFn != nil {
		e.callFn(e.arg)
		return
	}
	e.fn()
}

// Engine owns the virtual clock, the pending-event heap and the event
// free list. The zero value is ready to use.
type Engine struct {
	now      Time
	heap     []entry
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
func (e *Engine) Pending() int { return len(e.heap) }

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
	ev.fn = nil
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
	ev.fn = fn
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
	ev.callFn = fn
	ev.arg = arg
	return ev
}

// schedule allocates and enqueues a bare event at the given time.
func (e *Engine) schedule(at Time) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	e.push(entry{at, e.seq, ev})
	e.seq++
	return ev
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// AfterCall schedules fn(arg) to run delay after the current time — the
// typed-callback counterpart of After.
func (e *Engine) AfterCall(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
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
	// Leave it in the heap; the run loop discards dead events when popped
	// and recycles them.
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
	for len(e.heap) > 0 && e.heap[0].at <= limit {
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

// NextEventTime returns the scheduled time of the earliest live pending
// event, or false when no live event is queued. Cancelled events at the
// head of the queue are discarded on the way — the run loop would skip
// them anyway. The parallel shard driver polls this between execution
// windows to compute safe lookahead horizons.
func (e *Engine) NextEventTime() (Time, bool) {
	for len(e.heap) > 0 {
		if top := e.heap[0]; !top.ev.dead {
			return top.at, true
		}
		e.recycle(e.pop())
	}
	return 0, false
}

// Step executes exactly one live event, if any, and reports whether an
// event ran. Useful for fine-grained testing.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.pop()
		if top.dead {
			e.recycle(top)
			continue
		}
		e.now = top.at
		e.executed++
		top.run()
		e.recycle(top)
		return true
	}
	return false
}

// SnapshotEvents visits every live (non-cancelled) pending event in
// execution order — (time, insertion sequence) — for checkpointing. Only
// typed-callback events can be externalized: an event scheduled in
// closure form has no identifiable action, so visiting one returns an
// error. The visit callback receives the event's scheduled time, its
// typed callback and its argument; the caller is responsible for mapping
// (fn, arg) pairs to a serializable identity.
func (e *Engine) SnapshotEvents(visit func(at Time, fn func(any), arg any) error) error {
	live := make([]entry, 0, len(e.heap))
	for _, x := range e.heap {
		if !x.ev.dead {
			live = append(live, x)
		}
	}
	sort.Slice(live, func(i, j int) bool { return less(live[i], live[j]) })
	for _, x := range live {
		ev := x.ev
		if ev.callFn == nil {
			return fmt.Errorf("sim: cannot snapshot closure-form event at t=%v", ev.at)
		}
		if err := visit(ev.at, ev.callFn, ev.arg); err != nil {
			return err
		}
	}
	return nil
}

// RestoreClock sets a fresh engine's virtual clock and executed-event
// counter to a checkpointed state. It refuses to run on an engine that
// has already scheduled or executed anything: restore builds the world
// from scratch, it does not merge into a live one. Events re-scheduled
// after RestoreClock get fresh insertion sequences; scheduling them in
// checkpointed execution order therefore preserves their relative order
// exactly, which is what byte-identical resume requires.
func (e *Engine) RestoreClock(now Time, executed uint64) error {
	if e.now != 0 || e.executed != 0 || e.seq != 0 || len(e.heap) != 0 {
		return fmt.Errorf("sim: RestoreClock on a used engine")
	}
	if now < 0 {
		return fmt.Errorf("sim: RestoreClock to negative time %v", now)
	}
	e.now = now
	e.executed = executed
	return nil
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
		grown := make([]entry, i, max(2*i, 64))
		copy(grown, e.heap)
		e.heap = grown
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

// pop removes the earliest entry, moving the hole down from the root
// until the former last entry fits.
func (e *Engine) pop() *Event {
	h := e.heap
	top, last := h[0].ev, len(h)-1
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
