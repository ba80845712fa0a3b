package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

func nopCall(any) {}

func nopClosure() {}

// TestScheduleCallAllocFree pins the engine's steady-state allocation
// budget at zero: with a warm free list, scheduling and executing an
// event through the typed-callback form must not touch the heap. This
// is a regression gate — if it fails, the event pool or the callback
// plumbing has started allocating again.
func TestScheduleCallAllocFree(t *testing.T) {
	var e Engine
	// Warm up: populate the free list and grow the heap slice.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(e.Now()+Time(i), nopCall, nil)
	}
	e.Run()

	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			e.ScheduleCall(e.Now()+Time(i), nopCall, &e)
		}
		e.Run()
	})
	if avg > 0 {
		t.Errorf("ScheduleCall+Run allocates %.1f objects per run, want 0", avg)
	}
}

// TestScheduleAllocFree pins the closure form at zero steady-state
// allocations too, when the closure itself captures nothing (the event
// object comes from the pool; a capturing closure would add exactly its
// own allocation at the call site).
func TestScheduleAllocFree(t *testing.T) {
	var e Engine
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+Time(i), nopClosure)
	}
	e.Run()

	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			e.Schedule(e.Now()+Time(i), nopClosure)
		}
		e.Run()
	})
	if avg > 0 {
		t.Errorf("Schedule+Run allocates %.1f objects per run, want 0", avg)
	}
}

// TestEventPoolRecycles verifies the free list actually recycles event
// objects rather than leaking them: after running n events, scheduling
// n more must reuse the same backing objects (observable as a stable
// free-list length, not growth).
func TestEventPoolRecycles(t *testing.T) {
	var e Engine
	const n = 32
	for i := 0; i < n; i++ {
		e.ScheduleCall(Time(i), nopCall, nil)
	}
	e.Run()
	if got := len(e.free); got != n {
		t.Fatalf("free list holds %d events after draining %d, want %d", got, n, n)
	}
	for i := 0; i < n; i++ {
		e.ScheduleCall(e.Now()+Time(i), nopCall, nil)
	}
	if got := len(e.free); got != 0 {
		t.Errorf("free list holds %d events with %d scheduled, want 0 (reuse)", got, n)
	}
	e.Run()
	if got := len(e.free); got != n {
		t.Errorf("free list holds %d events after second drain, want %d", got, n)
	}
}

// TestHeapGrowthBytes pins the queue's growth policy: filling a fresh
// engine (with a warm free list, so only the heap array allocates) with
// n events may spend at most 3x the final array's bytes on the arrays it
// outgrows along the way. Doubling spends about 2x; append's gentler
// growth for large slices about 5x, and every outgrown array stays live
// until the next GC cycle — at a 10^5-rank chain's queue depth that is
// tens of MB of peak memory.
func TestHeapGrowthBytes(t *testing.T) {
	const n = 1 << 18
	e := Engine{free: make([]*Event, n)}
	for i := range e.free {
		e.free[i] = &Event{}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		e.ScheduleCall(Time(i%1000), nopCall, nil)
	}
	runtime.ReadMemStats(&after)
	final := uint64(len(e.heap)) * uint64(unsafe.Sizeof(entry{}))
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 3*final {
		t.Errorf("growing the heap to %d events allocated %d bytes, want <= 3x the final %d", n, spent, final)
	}
}

// TestCancelledEventsAreRecycled covers the discard path: dead events
// must return to the pool when popped, not leak.
func TestCancelledEventsAreRecycled(t *testing.T) {
	var e Engine
	ev := e.ScheduleCall(1, nopCall, nil)
	e.Cancel(ev)
	e.Run()
	if got := len(e.free); got != 1 {
		t.Errorf("free list holds %d events after cancelled drain, want 1", got)
	}
}
