package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

func nopCall(any) {}

// TestScheduleCallAllocFree pins the engine's steady-state allocation
// budget at zero: with a warm free list, scheduling and executing an
// event through the typed-callback form must not touch the heap, whether
// it gets its own heap entry or joins a same-time run. This is a
// regression gate — if it fails, the event pool or the callback plumbing
// has started allocating again.
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
		for i := 0; i < 8; i++ {
			e.ScheduleCall(e.Now()+10, nopCall, &e) // one run
		}
		e.Run()
	})
	if avg > 0 {
		t.Errorf("ScheduleCall+Run allocates %.1f objects per run, want 0", avg)
	}
}

// TestEventSize pins Event at 48 bytes, which the allocator serves from
// its 48-byte size class. One more word would make it 56 bytes, served
// as 64: a third more memory per pending event, which costs the no-run
// hold model (BenchmarkHold) 10–20%.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Errorf("Event is %d bytes, want 48", got)
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
		e.ScheduleCall(Time(1+i%1000), nopCall, nil) // never at Now(): all go to the heap
	}
	runtime.ReadMemStats(&after)
	final := uint64(len(e.heap)) * uint64(unsafe.Sizeof(entry{}))
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 3*final {
		t.Errorf("growing the heap to %d events allocated %d bytes, want <= 3x the final %d", n, spent, final)
	}
}

// TestLaneGrowthBytes pins the same growth policy for the same-time lane,
// which a 10^5-rank chain fills with up to 2×10^5 entries: one handler
// schedules n events at Now(), and the lane may spend at most 3x its final
// array's bytes on the way.
func TestLaneGrowthBytes(t *testing.T) {
	const n = 1 << 18
	e := Engine{free: make([]*Event, n+1)}
	for i := range e.free {
		e.free[i] = &Event{}
	}
	var spent, final uint64
	e.ScheduleCall(1, func(any) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			e.ScheduleCall(e.Now(), nopCall, nil)
		}
		runtime.ReadMemStats(&after)
		spent = after.TotalAlloc - before.TotalAlloc
		final = uint64(len(e.lane)) * uint64(unsafe.Sizeof(entry{}))
	}, nil)
	e.Run()
	if final != n*uint64(unsafe.Sizeof(entry{})) {
		t.Fatalf("lane held %d bytes of entries, want all %d events in it", final, n)
	}
	if spent > 3*final {
		t.Errorf("growing the lane to %d events allocated %d bytes, want <= 3x the final %d", n, spent, final)
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
