package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
)

// tap is the instrumentation of a traced run: spans recorded around the
// benchmark's calls into each layer, plus call counters on the layer
// interfaces the benchmark hands to the simulator (network model, noise
// injectors, the wait stream). Untraced runs pass a nil *tap, on which
// every method is a no-op, so the measured code path is the plain one.
type tap struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	net, noise, observe probe
}

func newTap() *tap { return &tap{t0: time.Now()} }

// span is one timed call into a layer. Trace is the ID of the root span
// of the operation (one simulation rep, one sweep, one service job) that
// caused it, so all spans of one operation share it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t *tap
	s span
}

// begin opens a span named after the layer function being called; pass
// the zero openSpan as parent to start a new operation.
func (t *tap) begin(name string, parent openSpan) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.nextID.Add(1)
	trace := parent.s.Trace
	if parent.t == nil {
		trace = id
	}
	return openSpan{t: t, s: span{ID: id, Parent: parent.s.ID, Trace: trace, Name: name, Start: int64(time.Since(t.t0))}}
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// durations returns the duration of every recorded span with the name.
func (t *tap) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans stores the spans as JSON lines, ordered by start time.
func (t *tap) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeEvery is the sampling period of a probe's timer: every call is
// counted, one in probeEvery is timed. Reading the clock costs about as
// much as one network-model or noise call, so timing all of them would
// mostly measure the clock.
const probeEvery = 32

// probe counts calls across a layer interface and times a sample of
// them. It is shared by the goroutines of a sharded run or a sweep pool.
type probe struct{ calls, timed, ns atomic.Int64 }

func (p *probe) start() (time.Time, bool) {
	if p.calls.Add(1)%probeEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (p *probe) stop(t time.Time, timed bool) {
	if timed {
		p.ns.Add(int64(time.Since(t)))
		p.timed.Add(1)
	}
}

// nsPerCall is the mean timed call duration less the clock's own cost.
func (p *probe) nsPerCall(clock float64) float64 {
	n := p.timed.Load()
	if n == 0 {
		return 0
	}
	v := float64(p.ns.Load())/float64(n) - clock
	if v < 0 {
		return 0
	}
	return v
}

// clockCost is the mean interval a probe measures around an empty call,
// so nsPerCall reports the call alone.
func clockCost() float64 {
	const n = 1 << 16
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t)
	}
	return float64(total) / n
}

// countingNet decorates a network model with the tap's netmodel probe.
type countingNet struct {
	inner netmodel.Model
	p     *probe
}

func (c countingNet) Transfer(from, to, bytes int) sim.Time {
	t, ok := c.p.start()
	v := c.inner.Transfer(from, to, bytes)
	c.p.stop(t, ok)
	return v
}

func (c countingNet) SendOverhead(from, to, bytes int) sim.Time {
	t, ok := c.p.start()
	v := c.inner.SendOverhead(from, to, bytes)
	c.p.stop(t, ok)
	return v
}

func (c countingNet) RecvOverhead(from, to, bytes int) sim.Time {
	t, ok := c.p.start()
	v := c.inner.RecvOverhead(from, to, bytes)
	c.p.stop(t, ok)
	return v
}

func (c countingNet) ProtocolFor(from, to, bytes int) netmodel.Protocol {
	t, ok := c.p.start()
	v := c.inner.ProtocolFor(from, to, bytes)
	c.p.stop(t, ok)
	return v
}

// wrapNet returns the model, decorated when the run is traced.
func (t *tap) wrapNet(m netmodel.Model) netmodel.Model {
	if t == nil {
		return m
	}
	return countingNet{inner: m, p: &t.net}
}

// countingNoise decorates a noise profile: every injector it builds
// counts and samples its draws through the tap's noise probe.
type countingNoise struct {
	inner noise.NoiseProfile
	p     *probe
}

func (c countingNoise) Validate() error { return c.inner.Validate() }
func (c countingNoise) String() string  { return c.inner.String() }

func (c countingNoise) Build(seed uint64, texec sim.Time) (mpisim.NoiseFunc, error) {
	fn, err := c.inner.Build(seed, texec)
	if fn == nil || err != nil {
		return fn, err
	}
	return func(rank, step int) sim.Time {
		t, ok := c.p.start()
		v := fn(rank, step)
		c.p.stop(t, ok)
		return v
	}, nil
}

// wrapNoise returns the profile, decorated when the run is traced.
func (t *tap) wrapNoise(p noise.NoiseProfile) noise.NoiseProfile {
	if t == nil || p == nil {
		return p
	}
	return countingNoise{inner: p, p: &t.noise}
}

// wrapObserve returns the wait-stream observer, decorated when the run
// is traced.
func (t *tap) wrapObserve(fn func(rank, step int, start, end sim.Time)) func(rank, step int, start, end sim.Time) {
	if t == nil {
		return fn
	}
	p := &t.observe
	return func(rank, step int, start, end sim.Time) {
		tm, ok := p.start()
		fn(rank, step, start, end)
		p.stop(tm, ok)
	}
}
