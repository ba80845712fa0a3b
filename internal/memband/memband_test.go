package memband

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// runFunc runs a func() passed as ScheduleCall's argument.
func runFunc(fn any) { fn.(func())() }

func approx(a, b sim.Time, tol float64) bool {
	return math.Abs(float64(a-b)) <= tol
}

func TestSoloPhaseRunsAtFullBandwidth(t *testing.T) {
	var e sim.Engine
	s, err := NewSocketCapped(&e, 100, 0) // 100 B/s
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	s.Start(50, func() { doneAt = e.Now() })
	e.Run()
	if !approx(doneAt, 0.5, 1e-9) {
		t.Errorf("solo phase finished at %v, want 0.5", doneAt)
	}
}

func TestTwoConcurrentPhasesShareBandwidth(t *testing.T) {
	var e sim.Engine
	s, _ := NewSocketCapped(&e, 100, 0)
	var d1, d2 sim.Time = -1, -1
	s.Start(50, func() { d1 = e.Now() })
	s.Start(50, func() { d2 = e.Now() })
	e.Run()
	// Both share 100 B/s, so each runs at 50 B/s: both finish at t=1.
	if !approx(d1, 1.0, 1e-9) || !approx(d2, 1.0, 1e-9) {
		t.Errorf("shared phases finished at %v, %v, want 1.0 each", d1, d2)
	}
}

func TestStaggeredPhases(t *testing.T) {
	var e sim.Engine
	s, _ := NewSocketCapped(&e, 100, 0)
	var d1, d2 sim.Time = -1, -1
	// Phase A: 100 bytes from t=0.
	s.Start(100, func() { d1 = e.Now() })
	// Phase B: 100 bytes from t=0.5.
	e.ScheduleCall(0.5, runFunc, func() { s.Start(100, func() { d2 = e.Now() }) })
	e.Run()
	// A runs solo 0..0.5 (50 B done), then shares: remaining 50 B at
	// 50 B/s -> finishes at 1.5. B then runs solo: at t=1.5 B has done
	// 50 B, 50 B left at 100 B/s -> finishes at 2.0.
	if !approx(d1, 1.5, 1e-9) {
		t.Errorf("phase A finished at %v, want 1.5", d1)
	}
	if !approx(d2, 2.0, 1e-9) {
		t.Errorf("phase B finished at %v, want 2.0", d2)
	}
}

func TestDesyncSpeedsUpIndividualPhase(t *testing.T) {
	// The Fig. 1 mechanism in miniature: a rank's 100-byte phase takes
	// 2.0 s when another rank's phase fully overlaps (lockstep), but only
	// 1.5 s when the other rank starts half-way through (desynchronized),
	// and 1.0 s when alone. Pure execution speeds up with desync even
	// though total socket throughput is conserved.
	phaseDuration := func(offset sim.Time) sim.Time {
		var e sim.Engine
		s, _ := NewSocketCapped(&e, 100, 0)
		var end sim.Time = -1
		s.Start(100, func() { end = e.Now() })
		e.ScheduleCall(offset, runFunc, func() { s.Start(100, func() {}) })
		e.Run()
		return end
	}
	lockstep := phaseDuration(0)
	desync := phaseDuration(0.5)
	if !approx(lockstep, 2.0, 1e-9) {
		t.Errorf("lockstep phase took %v, want 2.0", lockstep)
	}
	if !approx(desync, 1.5, 1e-9) {
		t.Errorf("desynchronized phase took %v, want 1.5", desync)
	}
	if desync >= lockstep {
		t.Errorf("desync (%v) not faster than lockstep (%v)", desync, lockstep)
	}
}

func TestPerPhaseCapLimitsSoloRate(t *testing.T) {
	// Socket bandwidth 120 B/s, but one phase alone may only use 40 B/s
	// (a single core cannot saturate the memory interface).
	var e sim.Engine
	s, err := NewSocketCapped(&e, 120, 40)
	if err != nil {
		t.Fatal(err)
	}
	var solo sim.Time
	s.Start(40, func() { solo = e.Now() })
	e.Run()
	if !approx(solo, 1.0, 1e-9) {
		t.Errorf("capped solo phase finished at %v, want 1.0", solo)
	}
	// With 4 concurrent phases the fair share 120/4=30 is below the cap,
	// so the cap is inactive.
	var e2 sim.Engine
	s2, _ := NewSocketCapped(&e2, 120, 40)
	var last sim.Time
	for i := 0; i < 4; i++ {
		s2.Start(30, func() { last = e2.Now() })
	}
	e2.Run()
	if !approx(last, 1.0, 1e-9) {
		t.Errorf("4 capped phases finished at %v, want 1.0 (cap inactive)", last)
	}
}

func TestNegativeCapRejected(t *testing.T) {
	var e sim.Engine
	if _, err := NewSocketCapped(&e, 100, -1); err == nil {
		t.Error("negative cap accepted")
	}
}

func TestZeroVolumeCompletesImmediately(t *testing.T) {
	var e sim.Engine
	s, _ := NewSocketCapped(&e, 10, 0)
	var done bool
	p := s.Start(0, func() { done = true })
	e.Run()
	if !done || !p.Done() {
		t.Error("zero-volume phase did not complete")
	}
	if e.Now() != 0 {
		t.Errorf("zero-volume phase advanced clock to %v", e.Now())
	}
}

func TestValidation(t *testing.T) {
	var e sim.Engine
	if _, err := NewSocketCapped(nil, 10, 0); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewSocketCapped(&e, 0, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	s, _ := NewSocketCapped(&e, 10, 0)
	defer func() {
		if recover() == nil {
			t.Error("nil onDone did not panic")
		}
	}()
	s.Start(5, nil)
}

func TestActiveCount(t *testing.T) {
	var e sim.Engine
	s, _ := NewSocketCapped(&e, 100, 0)
	s.Start(100, func() {})
	s.Start(200, func() {})
	e.ScheduleCall(0.1, runFunc, func() {
		if len(s.active) != 2 {
			t.Errorf("Active = %d during overlap, want 2", len(s.active))
		}
	})
	e.Run()
	if len(s.active) != 0 {
		t.Errorf("Active = %d after drain, want 0", len(s.active))
	}
}

func TestCallbackCanStartNewPhase(t *testing.T) {
	var e sim.Engine
	s, _ := NewSocketCapped(&e, 100, 0)
	var second sim.Time = -1
	s.Start(100, func() {
		s.Start(100, func() { second = e.Now() })
	})
	e.Run()
	if !approx(second, 2.0, 1e-9) {
		t.Errorf("chained phase finished at %v, want 2.0", second)
	}
}

// Property: total bytes moved is conserved — k identical concurrent phases
// finish simultaneously at k * solo time.
func TestEqualSharingProperty(t *testing.T) {
	f := func(kRaw, volRaw uint8) bool {
		k := int(kRaw%8) + 1
		vol := float64(volRaw%100) + 1
		var e sim.Engine
		s, err := NewSocketCapped(&e, 50, 0)
		if err != nil {
			return false
		}
		ends := make([]sim.Time, 0, k)
		for i := 0; i < k; i++ {
			s.Start(vol, func() { ends = append(ends, e.Now()) })
		}
		e.Run()
		if len(ends) != k {
			return false
		}
		want := sim.Time(float64(k) * vol / 50)
		for _, at := range ends {
			if !approx(at, want, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: work conservation under random arrivals — the last completion
// must equal total volume / bandwidth when the socket is never idle, and
// can never be earlier than that.
func TestWorkConservationProperty(t *testing.T) {
	f := func(vols []uint8) bool {
		if len(vols) == 0 || len(vols) > 12 {
			return true
		}
		var e sim.Engine
		s, err := NewSocketCapped(&e, 10, 0)
		if err != nil {
			return false
		}
		total := 0.0
		var last sim.Time
		for _, v := range vols {
			vol := float64(v%50) + 1
			total += vol
			s.Start(vol, func() {
				if e.Now() > last {
					last = e.Now()
				}
			})
		}
		e.Run()
		want := sim.Time(total / 10)
		// All started at t=0, socket busy throughout: last end == total/B.
		return approx(last, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
