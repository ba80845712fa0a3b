// Command idlewave runs a single idle-wave reproduction experiment — or
// an ad-hoc scenario on an arbitrary topology and workload — and prints
// its report.
//
// Usage:
//
//	idlewave -list
//	idlewave -exp fig4
//	idlewave -exp fig8 -seed 7 -full
//	idlewave -exp fig5 -csv
//	idlewave -topology grid:16x16:periodic -steps 24 -delay 15ms
//	idlewave -topology chain:32:periodic:uni -steps 20 -timeline
//	idlewave -workload lbm:40:cells=90 -steps 31 -delay 15ms
//	idlewave -workload triad:18 -workload-topology grid:3x6:periodic
//	idlewave -topology chain:32 -machine custom:lat=5us:bw=1GB/s -noise periodic:500us@10ms
//	idlewave -spec scenario.json -timeline
//
// The -spec flag runs the base scenario of a declarative spec document
// (the JSON the sweep service consumes; see idlewave.ParseSpec). "-"
// reads from stdin; only -timeline and -workers compose with it. The
// ad-hoc scenario flags are another spelling of that base scenario:
// idlewave turns them into one and runs it through the same decoder.
//
// The -topology flag (chain:<n>[:opts], grid:<e1>x<e2>[x...][:opts],
// torus:<dims>[:opts]; opts are open, periodic, uni, bi, d=<k>) runs a
// one-off bulk-synchronous scenario through the public API instead of a
// named figure reproduction, and reports the tracked wave front.
//
// The -workload flag (triad:<shape>[:ws=..][:msg=..],
// lbm:<shape>[:cells=..], divide:<shape>[:phase=..],
// bulk:<shape>[:texec=..][:bytes=..][:topology opts],
// gen:<shape>[:phase=<dist>][:delay=<dist>:every=<dist>][:seed=..],
// mix:<part>+<part>, replay:<trace file>; <shape> is a rank count or
// NxM torus extents) runs any of the paper's kernels — or a stochastic
// open-system generator, a multi-job mix, or a recorded trace — through
// the same pipeline; -workload-topology rebinds its decomposition.
// -record writes the executed per-rank timings to a trace v2 file that
// replay:<file> reproduces byte-identically: a replay restores the
// recorded machine, noise, seed and injections, so the flags a
// recording fixes are rejected alongside it (a mix part
// mix:replay/<file>+... composes a recorded job with live ones
// instead).
//
// The -machine flag (emmy, meggie:noise=0,
// custom:lat=1.2us:bw=6.8GB/s:eager=32768:cores=10x2) selects or builds
// the simulated system, and -noise (exp:1.5, exp:2.4us:cap=30us,
// periodic:500us@10ms, combinations joined with +) replaces the scalar
// -E injected-noise level with a composable profile.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
)

var (
	exp     = flag.String("exp", "", "experiment id (fig1..fig9, eq2)")
	seed    = flag.Uint64("seed", 42, "random seed for noise and injections")
	full    = flag.Bool("full", false, "run full (paper-scale) problem sizes")
	workers = flag.Int("workers", 0, "sweep-engine worker pool size (0 = all cores)")
	csv     = flag.Bool("csv", false, "print the data rows as CSV instead of the report")
	list    = flag.Bool("list", false, "list available experiments")

	topoSpec = flag.String("topology", "", "run an ad-hoc scenario on this topology (e.g. grid:16x16:periodic) instead of -exp")
	wlSpec   = flag.String("workload", "", "run an ad-hoc scenario of this workload (e.g. lbm:40:cells=90, triad:18, divide:16) instead of -exp")
	wlTopo   = flag.String("workload-topology", "", "rebind the -workload decomposition to this topology spec")
	machSpec = flag.String("machine", "", "ad-hoc scenario: machine spec (emmy, meggie:noise=0, custom:lat=1.2us:bw=6.8GB/s:...)")
	noiseSp  = flag.String("noise", "", "ad-hoc scenario: injected-noise profile spec (exp:1.5, periodic:500us@10ms, ...); replaces -E")
	steps    = flag.Int("steps", 24, "ad-hoc scenario: time steps")
	msgBytes = flag.Int("bytes", 8192, "ad-hoc scenario: message size per neighbor (bulk-sync only)")
	noiseE   = flag.Float64("E", 0, "ad-hoc scenario: injected noise level")
	delayAt  = flag.Int("delay-rank", -1, "ad-hoc scenario: delayed rank (-1 = topology center)")
	delaySt  = flag.Int("delay-step", 1, "ad-hoc scenario: delayed step")
	delayDur = flag.Duration("delay", 15*time.Millisecond, "ad-hoc scenario: injected delay (0 = none)")
	timeline = flag.Bool("timeline", false, "ad-hoc scenario: render the rank-over-time timeline")
	shards   = flag.Int("shards", 0, "ad-hoc scenario: parallel-DES shard count (0 = serial; results are byte-identical at any count)")
	record   = flag.String("record", "", "ad-hoc scenario: write the executed per-rank timings to this trace v2 file (replay with -workload replay:<file>)")
	specFile = flag.String("spec", "", "run the base scenario of a declarative spec document (\"-\" = stdin); replaces the ad-hoc flags")
)

func main() {
	flag.Parse()

	if *specFile != "" {
		// The spec document carries the whole scenario; reject every
		// flag it supersedes instead of silently ignoring them.
		rejectConflicts("-spec replaces %s; edit the spec document instead",
			"exp", "topology", "workload", "workload-topology", "machine", "noise",
			"steps", "bytes", "E", "delay-rank", "delay-step", "delay", "seed", "shards", "record")
		if err := runSpecFile(*specFile); err != nil {
			fmt.Fprintf(os.Stderr, "idlewave: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range core.Experiments() {
			title, _ := core.Title(id)
			fmt.Printf("%-5s %s\n", id, title)
		}
		return
	}
	adhoc := *topoSpec != "" || *wlSpec != ""
	if adhoc && *exp != "" {
		fmt.Fprintln(os.Stderr, "idlewave: -exp and -topology/-workload are mutually exclusive (a named figure reproduction fixes its own scenario)")
		os.Exit(2)
	}
	if !adhoc && (*machSpec != "" || *noiseSp != "") {
		fmt.Fprintln(os.Stderr, "idlewave: -machine/-noise apply to ad-hoc scenarios; named figure reproductions fix their own machines (pass -topology or -workload)")
		os.Exit(2)
	}
	if *noiseSp != "" {
		// The noise profile replaces the scalar level; reject an explicit
		// -E instead of silently ignoring it.
		rejectConflicts("-noise replaces %s; express the level as exp:<level>", "E")
	}
	if *wlTopo != "" && *wlSpec == "" {
		fmt.Fprintln(os.Stderr, "idlewave: -workload-topology needs -workload")
		os.Exit(2)
	}
	if *wlSpec != "" {
		// The workload fixes its own message size; reject an explicit
		// -bytes instead of silently running with the workload's.
		rejectConflicts("-workload replaces %s; fold it into the workload spec (e.g. bulk:64:bytes=8192)", "bytes")
	}
	if strings.HasPrefix(*wlSpec, "replay:") {
		// A recorded trace fixes the whole scenario — machine, noise,
		// seed, step count and the recorded injections. Re-running it
		// under different flags would silently add to the recorded
		// timings (the default -delay alone would shift every replay by
		// 15ms), so explicit overrides are rejected rather than layered
		// on top. To vary a recorded run, use it as a mix part or edit
		// the scenario it was recorded from.
		rejectConflicts("-workload replay: restores the recorded scenario and replaces %s",
			"machine", "noise", "E", "steps", "delay", "delay-rank", "delay-step", "seed", "workload-topology")
	}
	if adhoc {
		if err := runAdhoc(); err != nil {
			fmt.Fprintf(os.Stderr, "idlewave: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "idlewave: pick an experiment with -exp (see -list), a scenario with -topology, or a kernel with -workload")
		os.Exit(2)
	}
	rep, err := core.Run(*exp, core.Options{Seed: *seed, Quick: !*full, Workers: *workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "idlewave: %v\n", err)
		os.Exit(1)
	}
	if *csv {
		for _, row := range rep.Data {
			fmt.Println(strings.Join(row, ","))
		}
		return
	}
	fmt.Print(rep.String())
}

// runAdhoc simulates the ad-hoc scenario the flags describe — a
// bulk-synchronous run on the given topology, or any workload parsed
// from the -workload syntax — and prints the tracked wave front.
func runAdhoc() error {
	if path, ok := strings.CutPrefix(*wlSpec, "replay:"); ok {
		// ReplayScenario restores the recorded machine (noise
		// silenced), net model, seed and noise draws — the
		// byte-identical replay path, which a spec cannot express;
		// main() already rejected the flags the recording supersedes.
		spec, err := idlewave.ReplayScenario(path)
		if err != nil {
			return err
		}
		spec.Shards = *shards
		return simulate(idlewave.SpecScenario{}, spec)
	}
	ws, err := flagScenario()
	if err != nil {
		return err
	}
	spec, err := idlewave.ScenarioFromSpec(ws)
	if err != nil {
		return err
	}
	return simulate(ws, spec)
}

// flagScenario spells the ad-hoc scenario flags as a wire scenario.
func flagScenario() (idlewave.SpecScenario, error) {
	ws := idlewave.SpecScenario{
		Workload: *wlSpec, Topology: *topoSpec, Machine: *machSpec, Noise: *noiseSp,
		// Steps is the default step count of a workload spec.
		Steps: *steps, NoiseLevel: *noiseE, Seed: *seed, Shards: *shards,
	}
	if *wlSpec != "" {
		ws.Topology = *wlTopo
	} else {
		ws.MessageBytes = *msgBytes
	}
	if *delayDur > 0 {
		spec, err := idlewave.ScenarioFromSpec(ws)
		if err != nil {
			return ws, err
		}
		src, err := delaySource(spec, *delayAt)
		if err != nil {
			return ws, err
		}
		ws.Delay = []idlewave.SpecDelay{{Rank: src, Step: *delaySt, Duration: delayDur.String()}}
	}
	return ws, nil
}

// runSpecFile simulates the base scenario of a declarative spec
// document ("-" = stdin) and prints the same ad-hoc report.
func runSpecFile(path string) error {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	ws, err := idlewave.ParseSpec(data)
	if err != nil {
		return err
	}
	if len(ws.Axes) > 0 {
		return fmt.Errorf("the spec has %d sweep axes; idlewave runs single scenarios — submit it to cmd/sweep or the sweep service instead", len(ws.Axes))
	}
	spec, err := idlewave.ScenarioFromSpec(ws.Base)
	if err != nil {
		return err
	}
	return simulate(ws.Base, spec)
}

// simulate runs spec, recording it to -record when set, and prints its
// report; ws is the wire scenario it was decoded from.
func simulate(ws idlewave.SpecScenario, spec idlewave.ScenarioSpec) error {
	spec.RecordTo = *record
	res, err := idlewave.Simulate(spec)
	if err != nil {
		return err
	}
	if *record != "" {
		fmt.Printf("recorded  %s\n", *record)
	}
	return report(ws, spec, res)
}

// report prints the ad-hoc scenario summary; its machine and noise
// lines appear when the wire scenario ws names a machine or noise.
func report(ws idlewave.SpecScenario, spec idlewave.ScenarioSpec, res *idlewave.Result) error {
	fmt.Printf("workload  %v\n", res.Workload())
	if ws.Machine != "" {
		fmt.Printf("machine   %s\n", spec.Machine.Name)
	}
	if ws.Noise != "" {
		fmt.Printf("noise     %v\n", spec.Noise)
	}
	if topo := res.Topology(); topo != nil {
		fmt.Printf("topology  %s (%d ranks)\n", topo, topo.Ranks())
	}
	fmt.Printf("runtime   %.3f ms over %d steps (%d events)\n", res.End*1e3, res.Traces.Steps(), res.Events)
	fmt.Printf("idle      %.3f ms total, quiet from step %d\n", res.TotalIdle()*1e3, res.QuietStep())
	if bw, err := res.MemBandwidth(); err == nil {
		fmt.Printf("membw     %.2f GB/s achieved per rank\n", bw/1e9)
	}
	if len(spec.Delay) > 0 {
		d := spec.Delay[0]
		// Round: sim times are float seconds, and 0.015*1e9 lands one ulp
		// under 15000000 — truncation would print "14.999999ms".
		dur := time.Duration(math.Round(float64(d.Duration) * float64(time.Second)))
		fmt.Printf("delay     %v at rank %d, step %d\n", dur, d.Rank, d.Step)
		if v, err := res.WaveSpeed(d.Rank); err == nil {
			fmt.Printf("wave      speed %.1f hops/s", v)
			if dec, err := res.WaveDecay(d.Rank); err == nil {
				fmt.Printf(", decay %.1f us/hop", dec*1e6)
			}
			fmt.Println()
		}
	}
	if *timeline {
		return res.RenderTimeline(os.Stdout, 100)
	}
	return nil
}

// delaySource resolves the injection rank: an explicit flag value, or
// the center of the scenario's topology.
func delaySource(spec idlewave.ScenarioSpec, delayAt int) (int, error) {
	if delayAt >= 0 {
		return delayAt, nil
	}
	topo := spec.Topology
	if topo == nil && spec.Workload != nil {
		t, err := spec.Workload.Topology()
		if err != nil {
			return 0, err
		}
		topo = t
	}
	if topo == nil {
		return 0, fmt.Errorf("cannot derive a delay rank without a topology; pass -delay-rank")
	}
	if g, ok := topo.(idlewave.Grid); ok {
		return g.Center(), nil
	}
	return topo.Ranks() / 2, nil
}

// rejectConflicts exits with a usage error when any of the named flags
// was set explicitly; format spells the message around the list of
// conflicting flags.
func rejectConflicts(format string, names ...string) {
	super := map[string]bool{}
	for _, n := range names {
		super[n] = true
	}
	var conflict []string
	flag.Visit(func(f *flag.Flag) {
		if super[f.Name] {
			conflict = append(conflict, "-"+f.Name)
		}
	})
	if len(conflict) > 0 {
		fmt.Fprintf(os.Stderr, "idlewave: "+format+"\n", strings.Join(conflict, ", "))
		os.Exit(2)
	}
}
