package sim

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// runFunc runs a func() passed as ScheduleCall's argument, so a test can
// write its handler inline as a closure.
func runFunc(fn any) { fn.(func())() }

func TestClockAdvances(t *testing.T) {
	var e Engine
	var times []Time
	e.ScheduleCall(2, runFunc, func() { times = append(times, e.Now()) })
	e.ScheduleCall(1, runFunc, func() { times = append(times, e.Now()) })
	e.ScheduleCall(3, runFunc, func() { times = append(times, e.Now()) })
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
		e.ScheduleCall(5, runFunc, func() { order = append(order, i) })
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
	e.ScheduleCall(10, runFunc, func() {
		e.AfterCall(5, runFunc, func() { hit = e.Now() })
	})
	e.Run()
	if hit != 15 {
		t.Errorf("After fired at %v, want 15", hit)
	}
}

// A NaN time compares false against every clock, so a plain at < now
// check would let it in, and the queue would then stall behind it.
func TestSchedulePastPanics(t *testing.T) {
	for _, at := range []Time{5, Time(math.NaN())} {
		var e Engine
		e.ScheduleCall(10, runFunc, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v from t=10 did not panic", at)
				}
			}()
			e.ScheduleCall(at, runFunc, func() {})
		})
		e.Run()
	}
}

func TestScheduleNilPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	e.ScheduleCall(1, nil, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	for _, delay := range []Time{-1, Time(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AfterCall(%v) did not panic", delay)
				}
			}()
			new(Engine).AfterCall(delay, nopCall, nil)
		}()
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	ran := false
	ev := e.ScheduleCall(1, runFunc, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("cancelled event executed")
	}
	if !ev.dead {
		t.Error("event not marked cancelled")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelFromHandler(t *testing.T) {
	var e Engine
	ran := false
	victim := e.ScheduleCall(2, runFunc, func() { ran = true })
	e.ScheduleCall(1, runFunc, func() { e.Cancel(victim) })
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
		e.ScheduleCall(at, runFunc, func() { ran = append(ran, at) })
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
	e.ScheduleCall(1, runFunc, func() { count++ })
	e.ScheduleCall(2, runFunc, func() { count++ })
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
		e.ScheduleCall(Time(i), runFunc, func() {})
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
			e.AfterCall(1, runFunc, recurse)
		}
	}
	e.ScheduleCall(0, runFunc, recurse)
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
	e.ScheduleCall(1, runFunc, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

// engineDrivers runs an engine to completion through Run or through Step.
var engineDrivers = []struct {
	name  string
	drive func(*Engine)
}{
	{"Run", func(e *Engine) { e.Run() }},
	{"Step", func(e *Engine) {
		for e.Step() {
		}
	}},
}

func TestStepReentryPanics(t *testing.T) {
	for _, d := range engineDrivers {
		var e Engine
		panicked := false
		e.ScheduleCall(1, runFunc, func() {
			defer func() { panicked = recover() != nil }()
			e.Step()
		})
		e.ScheduleCall(2, runFunc, func() {})
		d.drive(&e)
		if !panicked {
			t.Errorf("%s: Step from a handler did not panic", d.name)
		}
		if e.Executed() != 2 || e.Now() != 2 {
			t.Errorf("%s: executed %d events, clock %v; want 2 and 2", d.name, e.Executed(), e.Now())
		}
	}
}

func TestStepClockCheckPanics(t *testing.T) {
	var e Engine
	e.ScheduleCall(1, runFunc, func() { t.Error("event behind the clock executed") })
	e.now = 2 // corrupt the clock past the queued event
	defer func() {
		if recover() == nil {
			t.Error("Step ran an event behind the clock without panicking")
		}
	}()
	e.Step()
}

// A and C are queued for t=5 from t=0; B is scheduled at Now() by A. C was
// queued before the clock reached 5, so it has the lower insertion
// sequence and must run before B, although B takes the same-time lane.
// A cancelled D at t=5 must not let E at t=6 overtake B either.
func TestSameTimeLaneOrder(t *testing.T) {
	for _, d := range engineDrivers {
		var e Engine
		var order []string
		note := func(name string) func() { return func() { order = append(order, name) } }
		e.ScheduleCall(5, runFunc, func() {
			note("A")()
			e.ScheduleCall(e.Now(), runFunc, note("B"))
		})
		e.ScheduleCall(5, runFunc, note("C"))
		e.Cancel(e.ScheduleCall(5, runFunc, note("D")))
		e.ScheduleCall(6, runFunc, note("E"))
		d.drive(&e)
		if got := strings.Join(order, ","); got != "A,C,B,E" {
			t.Errorf("%s: ran %s, want A,C,B,E", d.name, got)
		}
	}
}

// A and B at t=5 share one heap entry (a run); X at t=7 then becomes the
// latest push, so C at t=5 starts a new entry behind the run. D, scheduled
// by A at Now(), takes the lane and runs after everything queued for t=5
// beforehand.
func TestSameTimeRunOrder(t *testing.T) {
	for _, d := range engineDrivers {
		var e Engine
		var order []string
		note := func(name string) func() { return func() { order = append(order, name) } }
		e.ScheduleCall(5, runFunc, func() {
			note("A")()
			e.ScheduleCall(e.Now(), runFunc, note("D"))
		})
		e.ScheduleCall(5, runFunc, note("B"))
		e.ScheduleCall(7, runFunc, note("X"))
		e.ScheduleCall(5, runFunc, note("C"))
		if len(e.heap) != 3 || e.chained != 1 || e.Pending() != 4 {
			t.Fatalf("%s: %d heap entries, %d chained, %d pending; want 3, 1, 4",
				d.name, len(e.heap), e.chained, e.Pending())
		}
		d.drive(&e)
		if got := strings.Join(order, ","); got != "A,B,C,D,X" {
			t.Errorf("%s: ran %s, want A,B,C,D,X", d.name, got)
		}
	}
}

// A cancelled tail discarded before the clock reaches its time must stop
// being the tail: otherwise B, scheduled at the same time, reuses the
// recycled event and links behind itself, and is never run.
func TestRunTailReset(t *testing.T) {
	for name, discard := range map[string]func(*Engine){
		"RunUntil":      func(e *Engine) { e.RunUntil(5) },
		"NextEventTime": func(e *Engine) { e.NextEventTime() },
	} {
		var e Engine
		e.Cancel(e.ScheduleCall(5, runFunc, func() { t.Errorf("%s: cancelled A ran", name) }))
		discard(&e)
		if e.Now() != 0 || e.Pending() != 0 {
			t.Fatalf("%s: clock %v with %d pending after discarding A; want 0 and 0", name, e.Now(), e.Pending())
		}
		var ranAt Time = -1
		e.ScheduleCall(5, runFunc, func() { ranAt = e.Now() })
		if e.Run(); ranAt != 5 {
			t.Errorf("%s: B scheduled at 5 after the discard ran at %v", name, ranAt)
		}
	}
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
			e.ScheduleCall(at, runFunc, func() { executed = append(executed, e.Now()) })
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
			events[i] = e.ScheduleCall(Time(r.Float64()*50), runFunc, func() { ran[i] = true })
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
// sequence). The engine's clock starts at a random time, reached by
// running one event there, with events queued at that very time; handlers schedule at Now() and shortly after; between
// windows, events are scheduled at Now() from outside the run loop, as
// the shard coordinator does, and some are cancelled at once; random
// events are cancelled, and the queue drains through RunUntil windows,
// Step and NextEventTime.
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
	var last Time // the previous schedule's time
	// reuse returns the previous schedule's time about half the time, when
	// it is still ahead of the clock, so runs get long.
	reuse := func(at Time) Time {
		if len(handles) > 0 && last > e.Now() && r.Intn(2) == 0 {
			return last
		}
		return at
	}
	schedule := func(at Time) {
		last = at
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
	cancel := func(id int) {
		cancelled[id] = true
		e.Cancel(handles[id])
	}
	cancelRandom := func() {
		if len(ref) > 0 {
			cancel(ref[r.Intn(len(ref))].id)
		}
	}
	// outside schedules at exactly Now() from outside the run loop and
	// sometimes cancels the event at once, leaving a cancelled lane entry
	// for NextEventTime or Step to discard.
	outside := func() {
		if r.Intn(2) == 0 && len(handles) < budget {
			schedule(e.Now())
			if r.Intn(2) == 0 {
				cancel(len(handles) - 1)
			}
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
			schedule(reuse(e.Now() + Time(r.Intn(3))*0.5))
		}
		if r.Intn(8) == 0 {
			cancelRandom()
		}
	}
	start := Time(r.Intn(3))
	e.ScheduleCall(start, nopCall, nil)
	if !e.Step() || e.Now() != start {
		t.Fatalf("budget %d: clock at %v after the start event, want %v", budget, e.Now(), start)
	}
	for i := 0; i < budget/2; i++ {
		schedule(reuse(start + Time(r.Intn(5))))
	}
	for limit := start; ; limit += 1.5 {
		e.RunUntil(limit)
		want, ok := head()
		if ok && want.at <= limit {
			t.Fatalf("budget %d: RunUntil(%v) left event %+v queued", budget, limit, want)
		}
		outside()
		want, ok = head()
		at, live := e.NextEventTime()
		if live != ok || at != want.at || e.Pending() != len(ref) {
			t.Fatalf("budget %d: NextEventTime = (%v, %v) with %d pending, reference (%v, %v) with %d",
				budget, at, live, e.Pending(), want.at, ok, len(ref))
		}
		if !ok {
			break
		}
		cancelRandom()
		if r.Intn(2) == 0 {
			_, ok := head()
			if e.Step() != ok {
				t.Fatalf("budget %d: Step reported %v with live events queued = %v", budget, !ok, ok)
			}
			outside()
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

// BenchmarkSameTime mirrors the progress checks of a zero-overhead
// network model at BenchmarkHold's depth: each of 4×10^5 pending phase
// events, when it runs, schedules two checks at Now() and its successor
// phase at Now() plus a random increment, so two of every three events
// are scheduled at exactly Now(). ns/event is the engine's own cost per
// event in that mix.
func BenchmarkSameTime(b *testing.B) {
	const pending = 400_000
	r := rng.New(1)
	var e Engine
	var phase func(any)
	phase = func(any) {
		e.ScheduleCall(e.Now(), nopCall, nil)
		e.ScheduleCall(e.Now(), nopCall, nil)
		e.AfterCall(Time(r.Float64()), phase, nil)
	}
	for i := 0; i < pending; i++ {
		e.ScheduleCall(Time(r.Float64()), phase, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// BenchmarkLockstep is a lockstep chain at BenchmarkHold's depth: each of
// 4×10^5 pending events, when it runs, schedules its successor at Now()+1,
// so every time step is one run of 4×10^5 events. ns/event is the engine's
// own cost per event when pushes land at the previous push's time.
func BenchmarkLockstep(b *testing.B) {
	const pending = 400_000
	var e Engine
	var step func(any)
	step = func(any) { e.AfterCall(1, step, nil) }
	for i := 0; i < pending; i++ {
		e.ScheduleCall(1, step, nil)
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
			e.ScheduleCall(Time(r.Float64()), runFunc, func() {})
		}
		e.Run()
	}
}
