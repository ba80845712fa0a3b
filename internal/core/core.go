// Package core orchestrates the reproduction experiments: one named
// experiment per figure of the paper (plus an Eq. 2 validation sweep),
// each producing a Report with rendered text and machine-readable rows.
//
// The experiment registry is the single source of truth consumed by the
// cmd/idlewave and cmd/figures binaries and by the root-level benchmark
// harness.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options tunes an experiment run.
type Options struct {
	// Seed makes all stochastic parts reproducible.
	Seed uint64
	// Quick shrinks problem sizes and repetition counts so the whole
	// suite runs in seconds (used by tests); the full sizes match the
	// paper as closely as practical.
	Quick bool
	// Workers bounds the sweep engine's worker pool for experiments
	// that fan their parameter grids out concurrently; 0 means
	// GOMAXPROCS. Reports are identical for any worker count.
	Workers int
}

// Report is the outcome of one experiment.
type Report struct {
	ID       string
	Title    string
	Lines    []string   // human-readable rendering (tables, timelines)
	Data     [][]string // Data[0] is the header row
	Findings []string   // one-line quantitative conclusions
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) finding(format string, args ...interface{}) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(r.Findings) > 0 {
		b.WriteString("findings:\n")
		for _, f := range r.Findings {
			fmt.Fprintf(&b, "  - %s\n", f)
		}
	}
	return b.String()
}

// runner is an experiment implementation.
type runner func(Options) (*Report, error)

var registry = map[string]struct {
	title string
	run   runner
}{
	"fig1":           {"STREAM triad strong scaling vs. Eq. 1 model", runFig1},
	"fig2":           {"LBM desynchronization timeline", runFig2},
	"fig3":           {"Natural system noise histograms", runFig3},
	"fig4":           {"Basic delay propagation (eager, unidirectional)", runFig4},
	"fig5":           {"Propagation flavors: protocol x direction x boundary", runFig5},
	"fig6":           {"Interaction and cancellation of multiple idle waves", runFig6},
	"fig7":           {"Propagation speed doubling at distance d=2", runFig7},
	"fig8":           {"Idle-wave decay rate vs. injected noise level", runFig8},
	"fig9":           {"Idle-wave elimination by noise", runFig9},
	"eq2":            {"Wave-speed model validation sweep (Eq. 2)", runEq2},
	"ext-collective": {"Extension: delay transport through collective operations", runExtCollective},
	"ext-hierarchy":  {"Extension: wave speed across a communication-domain boundary", runExtHierarchy},
}

// Experiments returns the registered experiment IDs in canonical order.
func Experiments() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered title for an experiment ID.
func Title(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("core: unknown experiment %q", id)
	}
	return e.title, nil
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (have %s)",
			id, strings.Join(Experiments(), ", "))
	}
	rep, err := e.run(opts)
	if err != nil {
		return nil, fmt.Errorf("core: experiment %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = e.title
	return rep, nil
}

// ---- shared helpers ----

// bulkRun builds any workload's programs through the Workload interface
// and runs them on a machine with a flat (one process per node) network,
// the configuration used by the paper's controlled propagation
// experiments.
func bulkRun(m cluster.Machine, wl workload.Workload, noiseFn mpisim.NoiseFunc) (*mpisim.Result, error) {
	progs, err := wl.Programs()
	if err != nil {
		return nil, err
	}
	net, err := m.FlatNetModel()
	if err != nil {
		return nil, err
	}
	return mpisim.Run(mpisim.Config{
		Ranks: len(progs),
		Net:   net,
		Noise: noiseFn,
	}, progs)
}

// meanStepTime returns the average per-step wall time of the whole run.
func meanStepTime(set trace.Set) sim.Time {
	steps := set.Steps()
	if steps == 0 {
		return 0
	}
	return set.End() / sim.Time(steps)
}

// chainOrDie builds a chain; topology parameters in experiments are
// compile-time constants, so failure is a programming error.
func chainOrDie(n, d int, dir topology.Direction, b topology.Boundary) topology.Chain {
	c, err := topology.NewChain(n, d, dir, b)
	if err != nil {
		panic(err)
	}
	return c
}

// injection is sugar for a one-off delay.
func injection(rank, step int, d sim.Time) noise.Injection {
	return noise.Injection{Rank: rank, Step: step, Duration: d}
}

// jobSeed derives an independent random seed for one job of a
// concurrent sweep from the experiment seed and the job's grid index.
// Seeds depend only on (base, job), never on scheduling, so sweeps stay
// reproducible at any worker count.
func jobSeed(base uint64, job int) uint64 {
	return base ^ (uint64(job)+1)*0x9e3779b97f4a7c15
}
