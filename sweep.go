package idlewave

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpisim"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Direction selects unidirectional or bidirectional neighbor exchange
// (re-exported so sweep axes can be built over it).
type Direction = topology.Direction

// Boundary selects open or periodic chain ends.
type Boundary = topology.Boundary

// SweepAxis varies one scenario parameter across a sweep grid. Apply
// mutates a copy of the base spec for grid coordinate i on this axis;
// Labels[i] names that value in the output table.
type SweepAxis struct {
	// Name is the output column header for this axis.
	Name string
	// Labels holds one human-readable value label per axis position and
	// fixes the axis length.
	Labels []string
	// Apply sets position i's value on the spec.
	Apply func(spec *ScenarioSpec, i int)
}

// NoiseAxis varies the injected noise level E.
func NoiseAxis(levels ...float64) SweepAxis {
	labels := make([]string, len(levels))
	for i, e := range levels {
		labels[i] = fmt.Sprintf("%g", e)
	}
	return SweepAxis{
		Name:   "E",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.NoiseLevel = levels[i] },
	}
}

// MessageAxis varies the message size in bytes (and thereby the
// eager/rendezvous protocol choice).
func MessageAxis(bytes ...int) SweepAxis {
	labels := make([]string, len(bytes))
	for i, b := range bytes {
		labels[i] = fmt.Sprint(b)
	}
	return SweepAxis{
		Name:   "message_bytes",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.MessageBytes = bytes[i] },
	}
}

// DistanceAxis varies the neighbor distance d.
func DistanceAxis(ds ...int) SweepAxis {
	labels := make([]string, len(ds))
	for i, d := range ds {
		labels[i] = fmt.Sprint(d)
	}
	return SweepAxis{
		Name:   "d",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.NeighborDistance = ds[i] },
	}
}

// DirectionAxis varies the communication direction.
func DirectionAxis(dirs ...Direction) SweepAxis {
	labels := make([]string, len(dirs))
	for i, d := range dirs {
		labels[i] = d.String()
	}
	return SweepAxis{
		Name:   "direction",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.Direction = dirs[i] },
	}
}

// MachineAxis varies the simulated system.
func MachineAxis(ms ...Machine) SweepAxis {
	labels := make([]string, len(ms))
	for i, m := range ms {
		labels[i] = m.Name
	}
	return SweepAxis{
		Name:   "machine",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.Machine = ms[i] },
	}
}

// RanksAxis varies the number of ranks.
func RanksAxis(ns ...int) SweepAxis {
	labels := make([]string, len(ns))
	for i, n := range ns {
		labels[i] = fmt.Sprint(n)
	}
	return SweepAxis{
		Name:   "ranks",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.Ranks = ns[i] },
	}
}

// TopologyAxis varies the communication topology — mixing chains,
// grids and tori in one sweep. Labels come from each topology's
// String(). Topologies set this way override the base spec's Ranks/
// NeighborDistance/Direction/Boundary chain fields, so a topology axis
// should not be combined with RanksAxis, DistanceAxis or DirectionAxis.
func TopologyAxis(topos ...Topology) SweepAxis {
	labels := make([]string, len(topos))
	for i, tp := range topos {
		labels[i] = tp.String()
	}
	return SweepAxis{
		Name:   "topology",
		Labels: labels,
		Apply: func(s *ScenarioSpec, i int) {
			s.Topology = topos[i]
			s.Ranks = 0 // defer to the topology's rank count
		},
	}
}

// WorkloadAxis varies the kernel the scenario runs — mixing BulkSync,
// StreamTriad, LBM, DivideKernel and custom Workloads in one sweep.
// Labels come from each workload's String() (fmt.Stringer) when it has
// one. A workload set this way defers wholly to the workload's own
// shape: the base spec's Ranks/Steps/Texec/MessageBytes/
// NeighborDistance fields are cleared, so a workload axis should not be
// combined with RanksAxis, DistanceAxis or MessageAxis. The base spec's
// Topology (or a TopologyAxis) rebinds each workload's decomposition,
// and its Delay is added to each workload's own injections.
func WorkloadAxis(wls ...Workload) SweepAxis {
	labels := make([]string, len(wls))
	for i, w := range wls {
		labels[i] = workloadLabel(w)
	}
	return SweepAxis{
		Name:   "workload",
		Labels: labels,
		Apply: func(s *ScenarioSpec, i int) {
			s.Workload = wls[i]
			s.Ranks = 0
			s.Steps = 0
			s.Texec = 0
			s.MessageBytes = 0
			s.NeighborDistance = 0
		},
	}
}

// workloadLabel names a workload in sweep output.
func workloadLabel(w Workload) string {
	if s, ok := w.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", w)
}

// NoiseProfileAxis varies the injected-noise profile — mixing
// exponential, periodic, bimodal, silent and combined profiles in one
// sweep. Labels come from each profile's String() (the ParseNoise
// syntax). A profile set this way replaces the scalar NoiseLevel, so a
// noise-profile axis should not be combined with NoiseAxis; the base
// spec's NoiseLevel is cleared.
func NoiseProfileAxis(ps ...NoiseProfile) SweepAxis {
	labels := make([]string, len(ps))
	for i, p := range ps {
		labels[i] = p.String()
	}
	return SweepAxis{
		Name:   "noise",
		Labels: labels,
		Apply: func(s *ScenarioSpec, i int) {
			s.Noise = ps[i]
			s.NoiseLevel = 0
		},
	}
}

// NetModelAxis varies the communication cost model directly — mixing
// Hockney, LogGOPS, hierarchical and custom models in one sweep,
// independent of the machine the scenario otherwise describes. Labels
// come from each model's String() when it has one.
func NetModelAxis(ms ...NetModel) SweepAxis {
	labels := make([]string, len(ms))
	for i, m := range ms {
		labels[i] = fmt.Sprint(m)
	}
	return SweepAxis{
		Name:   "netmodel",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.NetModel = ms[i] },
	}
}

// LatencyAxis varies the machine's inter-node network latency — the
// knob behind the paper's machine-dependent wave speeds. The base
// spec's machine (Emmy when unset) is copied and modified per point, so
// a latency axis composes with MachineAxis when MachineAxis comes
// first.
func LatencyAxis(ls ...time.Duration) SweepAxis {
	labels := make([]string, len(ls))
	for i, l := range ls {
		labels[i] = l.String()
	}
	return SweepAxis{
		Name:   "latency",
		Labels: labels,
		Apply: func(s *ScenarioSpec, i int) {
			if s.Machine.Name == "" {
				s.Machine = Emmy()
			}
			s.Machine.NetLatency = sim.Time(ls[i].Seconds())
		},
	}
}

// BandwidthAxis varies the machine's inter-node network bandwidth in
// bytes per second. Like LatencyAxis it modifies a copy of the base
// spec's machine (Emmy when unset), so it composes with MachineAxis
// when MachineAxis comes first.
func BandwidthAxis(bws ...float64) SweepAxis {
	labels := make([]string, len(bws))
	for i, bw := range bws {
		labels[i] = cluster.FormatRate(bw)
	}
	return SweepAxis{
		Name:   "bandwidth",
		Labels: labels,
		Apply: func(s *ScenarioSpec, i int) {
			if s.Machine.Name == "" {
				s.Machine = Emmy()
			}
			s.Machine.NetBandwidth = bws[i]
		},
	}
}

// SeedAxis varies the random seed — the usual way to repeat every grid
// point under independent noise streams.
func SeedAxis(seeds ...uint64) SweepAxis {
	labels := make([]string, len(seeds))
	for i, s := range seeds {
		labels[i] = fmt.Sprint(s)
	}
	return SweepAxis{
		Name:   "seed",
		Labels: labels,
		Apply:  func(s *ScenarioSpec, i int) { s.Seed = seeds[i] },
	}
}

// Metric extracts one number from a finished scenario run. Fn may
// return an error when the quantity is undefined for the scenario (for
// example a wave speed when no wave survived); the table then records
// NaN for that cell instead of failing the sweep.
type Metric struct {
	Name string
	Fn   func(*Result) (float64, error)
}

// MetricWaveSpeed measures the wave speed in ranks/s from the given
// source rank.
func MetricWaveSpeed(source int) Metric {
	return Metric{
		Name: "speed_ranks_per_s",
		Fn:   func(r *Result) (float64, error) { return r.WaveSpeed(source) },
	}
}

// MetricWaveDecay measures the decay rate in seconds of amplitude per
// rank from the given source rank.
func MetricWaveDecay(source int) Metric {
	return Metric{
		Name: "decay_s_per_rank",
		Fn:   func(r *Result) (float64, error) { return r.WaveDecay(source) },
	}
}

// MetricTotalIdle sums the wait time of all ranks in seconds.
func MetricTotalIdle() Metric {
	return Metric{
		Name: "total_idle_s",
		Fn:   func(r *Result) (float64, error) { return r.TotalIdle(), nil },
	}
}

// MetricQuietStep reports the first step with no wave activity (-1 if
// waves survive to the end).
func MetricQuietStep() Metric {
	return Metric{
		Name: "quiet_step",
		Fn:   func(r *Result) (float64, error) { return float64(r.QuietStep()), nil },
	}
}

// MetricMemBandwidth reports the achieved per-rank memory streaming
// bandwidth in bytes per second — defined for memory-bound workloads
// (StreamTriad, LBM, memory-bound BulkSync); NaN otherwise.
func MetricMemBandwidth() Metric {
	return Metric{
		Name: "membw_bytes_per_s",
		Fn:   func(r *Result) (float64, error) { return r.MemBandwidth() },
	}
}

// MetricStepTime reports the mean wall-clock time per completed step in
// seconds — the quantity the paper's Eq. 1 performance model predicts.
func MetricStepTime() Metric {
	return Metric{
		Name: "step_time_s",
		Fn: func(r *Result) (float64, error) {
			steps := r.Traces.Steps()
			if steps == 0 {
				return 0, fmt.Errorf("idlewave: no completed steps")
			}
			return r.End / float64(steps), nil
		},
	}
}

// MetricRuntime reports the total wall-clock runtime in seconds.
func MetricRuntime() Metric {
	return Metric{
		Name: "runtime_s",
		Fn:   func(r *Result) (float64, error) { return r.End, nil },
	}
}

// MetricEvents reports the number of simulator events executed.
func MetricEvents() Metric {
	return Metric{
		Name: "events",
		Fn:   func(r *Result) (float64, error) { return float64(r.Events), nil },
	}
}

// SweepSpec describes a full parameter sweep: a base scenario, the axes
// whose cartesian product forms the grid, and the metrics extracted
// from every grid point.
type SweepSpec struct {
	// Base is the scenario template; each grid point starts from a copy.
	Base ScenarioSpec
	// Axes span the grid (row-major, last axis fastest). At least one
	// axis is required.
	Axes []SweepAxis
	// Metrics are evaluated on every grid point's result. At least one
	// metric is required.
	Metrics []Metric
	// Workers bounds the worker pool; 0 means GOMAXPROCS. Results are
	// identical for any worker count. Base.Shards composes with Workers:
	// each grid point additionally runs its simulation sharded across
	// that many engines, so per-point parallelism (Shards) and
	// across-point parallelism (Workers) multiply.
	Workers int
}

// SweepPoint is one evaluated grid point.
type SweepPoint struct {
	// Labels holds the axis value labels, one per sweep axis.
	Labels []string
	// Spec is the fully resolved scenario that ran.
	Spec ScenarioSpec
	// Values holds the metric results, one per sweep metric; NaN marks a
	// metric that was undefined for this scenario.
	Values []float64
}

// SweepTable is the ordered result of a Sweep: one point per grid
// coordinate, in row-major grid order regardless of worker count.
type SweepTable struct {
	// Header lists the axis names followed by the metric names.
	Header []string
	// Points holds the evaluated grid in row-major order.
	Points []SweepPoint
}

// Sweep fans the grid spanned by spec.Axes across a worker pool, runs
// Simulate on every point and extracts spec.Metrics from each result.
// The returned table is deterministic: the same spec (including Base.Seed)
// produces identical points at any Workers setting, because every grid
// point derives its noise streams from its own resolved ScenarioSpec
// and shares no mutable state with other points (points with equal
// bulk-synchronous workloads share their read-only programs).
func Sweep(spec SweepSpec) (*SweepTable, error) {
	if len(spec.Axes) == 0 {
		return nil, fmt.Errorf("idlewave: sweep needs at least one axis")
	}
	if len(spec.Metrics) == 0 {
		return nil, fmt.Errorf("idlewave: sweep needs at least one metric")
	}
	dims := make([]int, len(spec.Axes))
	for i, ax := range spec.Axes {
		if len(ax.Labels) == 0 || ax.Apply == nil {
			return nil, fmt.Errorf("idlewave: sweep axis %d (%s) is empty or has no Apply", i, ax.Name)
		}
		dims[i] = len(ax.Labels)
	}
	grid, err := sweep.NewGrid(dims...)
	if err != nil {
		return nil, fmt.Errorf("idlewave: %w", err)
	}
	share := &programShare{}
	points, err := sweep.Map(spec.Workers, grid.Size(), func(i int) (SweepPoint, error) {
		coords := grid.Coords(i)
		s := spec.Base
		labels := make([]string, len(spec.Axes))
		for a, ax := range spec.Axes {
			ax.Apply(&s, coords[a])
			labels[a] = ax.Labels[coords[a]]
		}
		// Resolve defaults before recording the point, so the emitted
		// spec reflects the Machine/Texec/MessageBytes that actually ran
		// (Simulate applies the same resolution; it is idempotent).
		s = s.withDefaults()
		res, err := simulate(s, share)
		if err != nil {
			return SweepPoint{}, err
		}
		values := make([]float64, len(spec.Metrics))
		for mi, m := range spec.Metrics {
			v, err := m.Fn(res)
			if err != nil {
				v = math.NaN()
			}
			values[mi] = v
		}
		return SweepPoint{Labels: labels, Spec: s, Values: values}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("idlewave: %w", err)
	}
	header := make([]string, 0, len(spec.Axes)+len(spec.Metrics))
	for _, ax := range spec.Axes {
		header = append(header, ax.Name)
	}
	for _, m := range spec.Metrics {
		header = append(header, m.Name)
	}
	return &SweepTable{Header: header, Points: points}, nil
}

// programShare lets the points of one Sweep share built programs. Noise
// and seeds are drawn at run time and never baked into programs, so the
// points along those axes run identical programs; mpisim only reads
// programs, so points may run them concurrently. It keeps the last
// bulk-synchronous program set and hands it to the next point whose
// workload builds the same; any other workload builds its own. Sharing
// cannot change a result, only skip a rebuild.
type programShare struct {
	mu    sync.Mutex
	wl    workload.BulkSync
	progs []mpisim.Program
}

// programs returns the workload's programs, shared when possible. A nil
// share always builds.
func (p *programShare) programs(wl Workload) ([]mpisim.Program, error) {
	b, ok := wl.(workload.BulkSync)
	if p == nil || !ok {
		return wl.Programs()
	}
	p.mu.Lock()
	progs := p.progs
	if progs != nil && !sameBulk(p.wl, b) {
		progs = nil
	}
	p.mu.Unlock()
	if progs != nil {
		return progs, nil
	}
	progs, err := b.Programs()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.wl, p.progs = b, progs
	p.mu.Unlock()
	return progs, nil
}

// sameBulk reports whether two bulk-synchronous workloads build the
// same programs. Only the built-in chain and grid topologies compare;
// any other topology never matches.
func sameBulk(a, b workload.BulkSync) bool {
	return sameTopology(a.Topo, b.Topo) && a.Steps == b.Steps && a.Texec == b.Texec &&
		a.MemBytes == b.MemBytes && a.Bytes == b.Bytes && slices.Equal(a.Injections, b.Injections)
}

func sameTopology(a, b topology.Topology) bool {
	switch x := a.(type) {
	case topology.Chain:
		y, ok := b.(topology.Chain)
		return ok && x == y
	case topology.Grid:
		y, ok := b.(topology.Grid)
		return ok && x.D == y.D && x.Dir == y.Dir && slices.Equal(x.Extents, y.Extents) && slices.Equal(x.Bounds, y.Bounds)
	}
	return false
}

// table converts to the internal emitter representation.
func (t *SweepTable) table() *sweep.Table {
	tbl := &sweep.Table{Header: t.Header}
	for _, p := range t.Points {
		row := make([]string, 0, len(t.Header))
		row = append(row, p.Labels...)
		for _, v := range p.Values {
			row = append(row, fmt.Sprintf("%g", v))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// Rows renders the table as strings: the header row followed by one row
// per point (axis labels, then metric values formatted with %g).
func (t *SweepTable) Rows() [][]string { return t.table().Data() }

// WriteCSV emits the table as CSV.
func (t *SweepTable) WriteCSV(w io.Writer) error { return t.table().WriteCSV(w) }

// WriteJSON emits the table as a JSON array of objects keyed by the
// header names.
func (t *SweepTable) WriteJSON(w io.Writer) error { return t.table().WriteJSON(w) }

// WriteMarkdown emits the table as an aligned GitHub-flavored Markdown
// table.
func (t *SweepTable) WriteMarkdown(w io.Writer) error { return t.table().WriteMarkdown(w) }
