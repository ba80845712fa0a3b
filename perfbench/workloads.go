package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	idlewave "repro"
	"repro/internal/genload"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
	"repro/internal/workload"
)

// params are the inputs every workload is generated from.
type params struct {
	seed    uint64
	seconds time.Duration // length of the measured phase
	small   bool          // reduced scale, for the smoke test
}

// scenario is one benchmark workload. setup builds its inputs (and, for
// the service, starts the server); it is what setup_s times.
type scenario struct {
	name  string
	setup func(p params, tp *tap) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	measure(d time.Duration, tp *tap) *phase
	close() error
}

// scenarios are the benchmark's workloads in their canonical order; see
// README.md for why each was chosen.
var scenarios = []scenario{
	{"chain100k", setupChain},
	{"torus-sharded", setupTorus},
	{"lbm-membound", setupLBM},
	{"genload-10k", setupGenload},
	{"decay-sweep", setupDecay},
	{"service-mix", setupService},
}

// phase is what one measured phase did.
type phase struct {
	work     float64            // throughput units completed: events, points or jobs
	rates    []float64          // work per second of each operation, when operations are alike
	elapsed  time.Duration      // host time the work took
	lat      []float64          // latency of each operation at the base load, ms
	ops      int                // operations attempted
	failed   int                // operations that failed or produced a wrong output
	digest   string             // SHA-256 of the simulated outputs
	full     bool               // digest covers the whole pinned output
	problems []string           // why operations failed
	layer    map[string]float64 // per-layer numbers only this workload knows
	info     []string           // extra lines for the report
}

func newPhase() *phase { return &phase{layer: map[string]float64{}} }

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

// check records one operation's output digest; every operation of a
// phase runs the same inputs, so every digest must agree.
func (ph *phase) check(dg string) {
	if ph.digest == "" {
		ph.digest = dg
	} else if dg != ph.digest {
		ph.fail("output digest %s differs from the phase's first %s", dg, ph.digest)
	}
}

// throughput is the median of the per-operation rates where the work
// comes in equal operations, which a few operations slowed by other
// load on the host cannot move; otherwise it is work over elapsed time.
func (ph *phase) throughput() float64 {
	if len(ph.rates) > 0 {
		return median(ph.rates)
	}
	if ph.elapsed <= 0 {
		return 0
	}
	return ph.work / ph.elapsed.Seconds()
}

// repeat runs op, at least once, until one more run would probably end
// after d, or until op reports a failure. It returns every run's
// duration. The heap is collected before each run, outside its timing,
// so a run's cost and the process's peak memory do not depend on how
// many runs came before it.
func repeat(d time.Duration, op func() bool) []time.Duration {
	var durs []time.Duration
	start := time.Now()
	for {
		runtime.GC()
		t := time.Now()
		ok := op()
		durs = append(durs, time.Since(t))
		el := time.Since(start)
		if !ok || el+el/time.Duration(len(durs)) > d {
			return durs
		}
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// hockney is the network of the engine workloads: 2 us latency, 3 GB/s
// and a 128 KiB eager limit (the paper's Fig. 4 configuration).
func hockney() (netmodel.Model, error) { return netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17) }

// nearCentre picks the delayed rank from the seed: the centre rank moved
// by at most ranks/16, so every seed starts the wave well inside the
// domain.
func nearCentre(seed uint64, ranks int) int {
	w := ranks/8 + 1
	return ranks/2 - w/2 + rng.New(seed).Intn(w)
}

// centreDelay is the one-off delay that starts every engine workload's
// idle wave.
func centreDelay(rank int) []noise.Injection {
	return []noise.Injection{{Rank: rank, Step: 2, Duration: sim.Milli(15)}}
}

// engine runs one simulation per operation through mpisim.Run, with a
// streaming front tracker on the wait stream.
type engine struct {
	cfg      mpisim.Config
	progs    []mpisim.Program
	expand   func() ([]mpisim.Program, error) // set: programs are rebuilt inside every rep
	topo     topology.Topology
	source   int
	texec    sim.Time
	eligible bool // PlanShards accepted the sharded plan
}

// buildPrograms expands a workload into per-rank programs.
func buildPrograms(tp *tap, wl workload.Workload) ([]mpisim.Program, error) {
	s := tp.begin("workload.Programs", openSpan{})
	defer s.end()
	return wl.Programs()
}

func newEngine(tp *tap, wl workload.Workload, cfg mpisim.Config, source int, texec sim.Time) (*engine, error) {
	topo, err := wl.Topology()
	if err != nil {
		return nil, err
	}
	progs, err := buildPrograms(tp, wl)
	if err != nil {
		return nil, err
	}
	if cfg.Net, err = hockney(); err != nil {
		return nil, err
	}
	cfg.Ranks = len(progs)
	e := &engine{cfg: cfg, progs: progs, topo: topo, source: source, texec: texec}
	if cfg.Shards > 0 {
		plan, err := mpisim.PlanShards(cfg, progs)
		if err != nil {
			return nil, err
		}
		e.eligible = plan.Bounds != nil
	}
	return e, nil
}

func setupChain(p params, tp *tap) (instance, error) {
	ranks := 100_000
	if p.small {
		ranks = 2_000
	}
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		return nil, err
	}
	src := nearCentre(p.seed, ranks)
	wl := workload.BulkSync{Topo: chain, Steps: 12, Texec: sim.Milli(3), Bytes: 8192, Injections: centreDelay(src)}
	return newEngine(tp, wl, mpisim.Config{Trace: mpisim.TraceOff}, src, wl.Texec)
}

func setupTorus(p params, tp *tap) (instance, error) {
	side := 64
	if p.small {
		side = 16
	}
	torus, err := topology.Torus2D(side, side)
	if err != nil {
		return nil, err
	}
	src := nearCentre(p.seed, torus.Ranks())
	wl := workload.BulkSync{Topo: torus, Steps: 40, Texec: sim.Milli(3), Bytes: 8192, Injections: centreDelay(src)}
	return newEngine(tp, wl, mpisim.Config{Shards: 2}, src, wl.Texec)
}

// LBM machine: 8 ranks per socket, 40 GB/s per socket, 8 GB/s per core.
const (
	lbmRanksPerSocket = 8
	lbmSocketBW       = 40e9
	lbmCoreBW         = 8e9
)

func setupLBM(p params, tp *tap) (instance, error) {
	ranks, steps := 64, 400
	if p.small {
		ranks, steps = 16, 40
	}
	src := nearCentre(p.seed, ranks)
	// 64 cells per edge make each halo 160 KiB, above the 128 KiB eager
	// limit, so every exchange takes the rendezvous handshake.
	wl := workload.LBM{Ranks: ranks, Steps: steps, CellsPerDim: 64, Injections: centreDelay(src)}
	cfg := mpisim.Config{
		SocketOf:        func(rank int) int { return rank / lbmRanksPerSocket },
		SocketBandwidth: lbmSocketBW,
		CoreBandwidth:   lbmCoreBW,
	}
	// The execution phase of a saturated socket, which sets the front
	// tracker's idle threshold.
	texec := sim.Time(wl.MemBytesPerRank() * lbmRanksPerSocket / lbmSocketBW)
	return newEngine(tp, wl, cfg, src, texec)
}

func setupGenload(p params, tp *tap) (instance, error) {
	ranks := 10_000
	if p.small {
		ranks = 500
	}
	g := genload.GenWorkload{
		Ranks: ranks,
		Steps: 12,
		Phase: genload.Gamma{Shape: 2, Scale: sim.Milli(3) / 2},
		Bytes: 8192,
		Delay: genload.Exp{MeanTime: sim.Micro(500)},
		Every: genload.Exp{MeanTime: sim.Milli(20)},
		Seed:  p.seed,
		// A fixed centre delay on top of the seeded process keeps one
		// wave whose front the tracker must find at every seed.
		Injections: centreDelay(ranks / 2),
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	topo, err := g.Topology()
	if err != nil {
		return nil, err
	}
	net, err := hockney()
	if err != nil {
		return nil, err
	}
	return &engine{
		cfg:    mpisim.Config{Ranks: ranks, Net: net, Trace: mpisim.TraceOff},
		expand: g.Programs,
		topo:   topo,
		source: ranks / 2,
		texec:  sim.Milli(3),
	}, nil
}

func (e *engine) close() error { return nil }

// rep runs one simulation and returns its event count and output digest.
func (e *engine) rep(tp *tap, root openSpan) (uint64, string, error) {
	progs := e.progs
	if e.expand != nil {
		s := tp.begin("genload.Programs", root)
		var err error
		progs, err = e.expand()
		s.end()
		if err != nil {
			return 0, "", err
		}
	}
	tracker := wave.NewFrontTracker(e.topo, e.source, e.texec/2)
	cfg := e.cfg
	cfg.Net = tp.wrapNet(cfg.Net)
	cfg.OnWait = tp.wrapObserve(tracker.Observe)
	s := tp.begin("mpisim.Run", root)
	res, err := mpisim.Run(cfg, progs)
	s.end()
	if err != nil {
		return 0, "", err
	}
	if tracker.Samples() == 0 {
		return 0, "", fmt.Errorf("front tracker observed no idle wave from rank %d", e.source)
	}
	a := tp.begin("wave.Front", root)
	front := tracker.Front()
	a.end()
	d := newDigest()
	d.f64(float64(res.End))
	d.u64(res.Events)
	for _, f := range front.Samples {
		d.u64(uint64(f.Rank))
		d.u64(uint64(f.Hops))
		d.f64(float64(f.Arrival))
		d.f64(float64(f.Amplitude))
	}
	for _, rt := range res.Traces.Ranks {
		for _, t := range rt.StepEnd {
			d.f64(float64(t))
		}
	}
	return res.Events, d.sum(), nil
}

func (e *engine) measure(d time.Duration, tp *tap) *phase {
	ph := newPhase()
	if e.cfg.Shards > 0 {
		if !e.eligible {
			ph.fail("the %d-shard plan fell back to the serial engine", e.cfg.Shards)
		}
		ph.layer["mpisim.shard.eligible"] = b2f(e.eligible)
		if tp != nil {
			ph.layer["mpisim.shard.speedup"] = e.shardSpeedup()
		}
	}
	var events uint64
	durs := repeat(d, func() bool {
		start := time.Now()
		root := tp.begin("op", openSpan{})
		ev, dg, err := e.rep(tp, root)
		root.end()
		ph.ops++
		if err != nil {
			ph.fail("%v", err)
			return false
		}
		ph.check(dg)
		events = ev
		ph.work += float64(ev)
		ph.rates = append(ph.rates, float64(ev)/time.Since(start).Seconds())
		return true
	})
	ph.lat = millis(durs)
	ph.full = true
	ph.layer["mpisim.events"] = float64(events)
	return ph
}

// shardSpeedup times one serial and one sharded run of the same
// programs, undecorated: serial host time over sharded host time.
func (e *engine) shardSpeedup() float64 {
	serial := e.cfg
	serial.Shards = 0
	t := time.Now()
	if _, err := mpisim.Run(serial, e.progs); err != nil {
		return 0
	}
	ts := time.Since(t)
	t = time.Now()
	if _, err := mpisim.Run(e.cfg, e.progs); err != nil {
		return 0
	}
	return ts.Seconds() / time.Since(t).Seconds()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// decay is the noise-decay sweep through the public idlewave.Sweep API.
type decay struct {
	base   idlewave.ScenarioSpec
	levels []float64
	seeds  []uint64
	source int
}

// sweepWorkers is the sweep pool size of decay-sweep.
const sweepWorkers = 2

func setupDecay(p params, _ *tap) (instance, error) {
	ranks, steps, nseeds := 128, 100, 8
	if p.small {
		ranks, steps, nseeds = 32, 30, 2
	}
	ring, err := idlewave.NewChain(ranks, 1, idlewave.Bidirectional, idlewave.Periodic)
	if err != nil {
		return nil, err
	}
	r := rng.New(p.seed)
	seeds := make([]uint64, nseeds)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	src := nearCentre(p.seed, ranks)
	return &decay{
		base: idlewave.ScenarioSpec{
			Topology: ring,
			Steps:    steps,
			Delay:    []idlewave.Injection{idlewave.Inject(src, 2, 15*time.Millisecond)},
		},
		levels: []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2},
		seeds:  seeds,
		source: src,
	}, nil
}

func (w *decay) close() error { return nil }

// spec builds the sweep. The noise axis sets E through an
// ExponentialNoise profile, which reproduces the NoiseLevel stream byte
// for byte and lets a traced run count its draws.
func (w *decay) spec(tp *tap, root openSpan) idlewave.SweepSpec {
	machine := idlewave.Emmy()
	machine.Noise = tp.wrapNoise(machine.Noise)
	base := w.base
	base.Machine = machine
	levels := w.levels
	labels := make([]string, len(levels))
	for i, e := range levels {
		labels[i] = strconv.FormatFloat(e, 'g', -1, 64)
	}
	noiseAxis := idlewave.SweepAxis{Name: "E", Labels: labels, Apply: func(s *idlewave.ScenarioSpec, i int) {
		if levels[i] > 0 {
			s.Noise = tp.wrapNoise(idlewave.ExponentialNoise{Level: levels[i]})
		}
	}}
	metrics := []idlewave.Metric{
		idlewave.MetricWaveSpeed(w.source), idlewave.MetricWaveDecay(w.source),
		idlewave.MetricTotalIdle(), idlewave.MetricEvents(),
	}
	if tp != nil {
		for i := range metrics {
			fn := metrics[i].Fn
			metrics[i].Fn = func(r *idlewave.Result) (float64, error) {
				s := tp.begin("wave.Metric", root)
				defer s.end()
				return fn(r)
			}
		}
	}
	return idlewave.SweepSpec{
		Base:    base,
		Axes:    []idlewave.SweepAxis{noiseAxis, idlewave.SeedAxis(w.seeds...)},
		Metrics: metrics,
		Workers: sweepWorkers,
	}
}

func (w *decay) measure(d time.Duration, tp *tap) *phase {
	ph := newPhase()
	points := len(w.levels) * len(w.seeds)
	durs := repeat(d, func() bool {
		start := time.Now()
		root := tp.begin("op", openSpan{})
		s := tp.begin("idlewave.Sweep", root)
		tbl, err := idlewave.Sweep(w.spec(tp, root))
		s.end()
		root.end()
		ph.ops += points
		if err != nil {
			ph.fail("%v", err)
			ph.failed += points - 1
			return false
		}
		dg := newDigest()
		for _, h := range tbl.Header {
			dg.str(h)
		}
		for _, pt := range tbl.Points {
			for _, l := range pt.Labels {
				dg.str(l)
			}
			for _, v := range pt.Values {
				dg.f64(v)
			}
		}
		ph.check(dg.sum())
		ph.work += float64(len(tbl.Points))
		ph.rates = append(ph.rates, float64(len(tbl.Points))/time.Since(start).Seconds())
		return true
	})
	ph.lat = millis(durs)
	ph.full = true
	return ph
}
