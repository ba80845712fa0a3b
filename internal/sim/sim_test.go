package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestClockAdvances(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(2, func() { times = append(times, e.Now()) })
	e.Schedule(1, func() { times = append(times, e.Now()) })
	e.Schedule(3, func() { times = append(times, e.Now()) })
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %v, want 3", end)
	}
	want := []Time{1, 2, 3}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("event %d at %v, want %v", i, times[i], w)
		}
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var hit Time
	e.Schedule(10, func() {
		e.After(5, func() { hit = e.Now() })
	})
	e.Run()
	if hit != 15 {
		t.Errorf("After fired at %v, want 15", hit)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestScheduleNilPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	var e Engine
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("cancelled event executed")
	}
	if !ev.Cancelled() {
		t.Error("event not marked cancelled")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelFromHandler(t *testing.T) {
	var e Engine
	ran := false
	victim := e.Schedule(2, func() { ran = true })
	e.Schedule(1, func() { e.Cancel(victim) })
	e.Run()
	if ran {
		t.Error("event cancelled by earlier handler still executed")
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var ran []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(3)
	if len(ran) != 3 {
		t.Fatalf("RunUntil(3) executed %d events, want 3", len(ran))
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 5 {
		t.Errorf("after Run, executed %d events total, want 5", len(ran))
	}
}

func TestStep(t *testing.T) {
	var e Engine
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if count != 1 {
		t.Fatalf("after one Step, count = %d", count)
	}
	if !e.Step() {
		t.Fatal("second Step returned false")
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestExecutedCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed())
	}
}

func TestHandlersCanSchedule(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	end := e.Run()
	if depth != 100 {
		t.Errorf("chain depth = %d, want 100", depth)
	}
	if end != 99 {
		t.Errorf("end time = %v, want 99", end)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestTimeConversions(t *testing.T) {
	if Micro(3).Micros() != 3 {
		t.Errorf("Micro/Micros roundtrip: %v", Micro(3).Micros())
	}
	if Milli(3).Millis() != 3 {
		t.Errorf("Milli/Millis roundtrip: %v", Milli(3).Millis())
	}
	if Seconds(1) != 1 {
		t.Errorf("Seconds(1) = %v", Seconds(1))
	}
	if Milli(1) != Micro(1000) {
		t.Errorf("1ms != 1000us")
	}
}

// Property: with random schedule times, events always execute in
// non-decreasing time order and every live event executes exactly once.
func TestExecutionOrderProperty(t *testing.T) {
	r := rng.New(17)
	f := func(n uint8) bool {
		var e Engine
		total := int(n%100) + 1
		var executed []Time
		scheduled := make([]Time, total)
		for i := 0; i < total; i++ {
			at := Time(r.Float64() * 100)
			scheduled[i] = at
			e.Schedule(at, func() { executed = append(executed, e.Now()) })
		}
		e.Run()
		if len(executed) != total {
			return false
		}
		sort.Slice(scheduled, func(i, j int) bool { return scheduled[i] < scheduled[j] })
		for i := range executed {
			if executed[i] != scheduled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset executes exactly the complement.
func TestCancellationProperty(t *testing.T) {
	r := rng.New(18)
	f := func(n uint8) bool {
		var e Engine
		total := int(n%60) + 2
		events := make([]*Event, total)
		ran := make([]bool, total)
		for i := 0; i < total; i++ {
			i := i
			events[i] = e.Schedule(Time(r.Float64()*50), func() { ran[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total/2; i++ {
			k := r.Intn(total)
			e.Cancel(events[k])
			cancelled[k] = true
		}
		e.Run()
		for i := range ran {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refKey is one event in the naive reference queue; ids are assigned in
// scheduling order, so an id doubles as the insertion sequence.
type refKey struct {
	at Time
	id int
}

// Property: at heap depth and under heavy ties, the engine executes
// exactly the order of a naive sorted-slice queue on (time, insertion
// sequence). Handlers schedule at Now() and shortly after, random events
// are cancelled, and the queue drains through RunUntil windows, Step and
// NextEventTime.
func TestReferenceOrderProperty(t *testing.T) {
	for seed, budget := range []int{200, 2000, 20000} {
		checkReferenceOrder(t, rng.New(uint64(seed+1)), budget)
	}
}

func checkReferenceOrder(t *testing.T, r *rng.Rand, budget int) {
	t.Helper()
	var e Engine
	var ref []refKey // pending in reference order, cancelled ones included
	var handles []*Event
	var cancelled []bool
	var fire func(any)
	schedule := func(at Time) {
		id := len(handles)
		handles = append(handles, e.ScheduleCall(at, fire, id))
		cancelled = append(cancelled, false)
		i := sort.Search(len(ref), func(i int) bool { return ref[i].at > at })
		ref = append(ref, refKey{})
		copy(ref[i+1:], ref[i:])
		ref[i] = refKey{at, id}
	}
	// head drops the cancelled prefix, as the engine does when it pops.
	head := func() (refKey, bool) {
		for len(ref) > 0 && cancelled[ref[0].id] {
			ref = ref[1:]
		}
		if len(ref) == 0 {
			return refKey{}, false
		}
		return ref[0], true
	}
	cancelRandom := func() {
		if len(ref) > 0 {
			id := ref[r.Intn(len(ref))].id
			cancelled[id] = true
			e.Cancel(handles[id])
		}
	}
	fire = func(arg any) {
		id := arg.(int)
		if want, ok := head(); !ok || want.id != id || want.at != e.Now() {
			t.Fatalf("budget %d: engine ran event %d at %v, reference expects %+v (ok=%v)",
				budget, id, e.Now(), want, ok)
		}
		ref = ref[1:]
		for k := r.Intn(3); k > 0 && len(handles) < budget; k-- {
			schedule(e.Now() + Time(r.Intn(3))*0.5)
		}
		if r.Intn(8) == 0 {
			cancelRandom()
		}
	}
	for i := 0; i < budget/2; i++ {
		schedule(Time(r.Intn(5)))
	}
	for limit := Time(0); ; limit += 1.5 {
		e.RunUntil(limit)
		want, ok := head()
		if ok && want.at <= limit {
			t.Fatalf("budget %d: RunUntil(%v) left event %+v queued", budget, limit, want)
		}
		at, live := e.NextEventTime()
		if live != ok || at != want.at || e.Pending() != len(ref) {
			t.Fatalf("budget %d: NextEventTime = (%v, %v) with %d pending, reference (%v, %v) with %d",
				budget, at, live, e.Pending(), want.at, ok, len(ref))
		}
		if !ok {
			break
		}
		cancelRandom()
		if r.Intn(2) == 0 && !e.Step() {
			t.Fatalf("budget %d: Step ran nothing with live events queued", budget)
		}
	}
	if len(handles) < budget/2 {
		t.Fatalf("budget %d: only %d events scheduled", budget, len(handles))
	}
}

// BenchmarkHold is the classic hold model at the queue depth a 10^5-rank
// chain peaks at: 4×10^5 events stay pending, and every event, when it
// runs, schedules one successor at now plus a random increment. ns/event
// is the engine's own cost per pop+push at that depth.
func BenchmarkHold(b *testing.B) {
	const pending = 400_000
	r := rng.New(1)
	var e Engine
	var hold func(any)
	hold = func(any) { e.AfterCall(Time(r.Float64()), hold, nil) }
	for i := 0; i < pending; i++ {
		e.ScheduleCall(Time(r.Float64()), hold, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

func BenchmarkScheduleRun(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(r.Float64()), func() {})
		}
		e.Run()
	}
}
