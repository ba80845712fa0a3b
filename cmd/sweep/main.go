// Command sweep runs ad-hoc parameter sweeps over the idle-wave
// simulator: the cartesian product of noise level E, message size,
// neighbor distance d, direction, machine and workload fans out across
// a worker pool and the per-point metrics come back as a table, CSV,
// JSON or Markdown — deterministically, independent of the worker
// count.
//
// Usage:
//
//	sweep -E 0,0.02,0.05,0.1
//	sweep -E 0,0.1 -bytes 8192,262144 -d 1,2 -dir uni,bi -format csv
//	sweep -machine emmy,meggie -metrics speed,decay,idle -o out.csv -format csv
//	sweep -machine custom:lat=1us,custom:lat=5us -noise exp:0.5,periodic:500us@10ms
//	sweep -topology grid:16x16:periodic,chain:256:periodic -E 0,0.05
//	sweep -workload triad:18,lbm:18:cells=90,divide:18 -metrics runtime,membw
//	sweep -E 0,0.05 -format markdown
//	sweep -spec sweep.json -format csv
//
// The scenario and axis flags are one spelling of a declarative sweep
// spec (the JSON document the sweep service consumes; see
// idlewave.ParseSpec): sweep turns them into that document and runs it
// through the same decoder as -spec, which reads the document itself
// ("-" = stdin). Only the output flags (-format, -o), the execution
// flag -workers and the profiling flags compose with -spec; everything
// the spec describes is rejected as a conflict.
//
// The -topology flag takes comma-separated topology specs
// (chain:<n>[:opts], grid:<e1>x<e2>[x...][:opts], torus:<dims>[:opts];
// opts are open, periodic, uni, bi, d=<k>) and replaces the chain-only
// -ranks/-d/-dir/-periodic flags with a topology axis.
//
// The -workload flag takes comma-separated workload specs
// (triad:<shape>[:ws=..][:msg=..], lbm:<shape>[:cells=..],
// divide:<shape>[:phase=..], bulk:<shape>[:texec=..][:bytes=..][:topo
// opts], gen:<shape>[:phase=<dist>][:delay=<dist>:every=<dist>],
// mix:<part>+<part>, replay:<trace file>; <shape> is a rank count or
// NxM torus extents) and sweeps them as a workload axis, replacing the
// shape-and-kernel flags (-ranks/-d/-dir/-periodic/-topology/-texec/
// -bytes). Generator specs embed distributions with ':' spelled '/'
// ("gen:64:phase=gamma/shape=2/scale=3ms").
//
// The -machine flag takes comma-separated machine specs in the
// ParseMachine syntax — reference names ("emmy"), modified references
// ("meggie:noise=0") or fully custom systems
// ("custom:lat=1.2us:bw=6.8GB/s:eager=32768:cores=10x2").
//
// The -noise flag takes comma-separated noise profile specs in the
// ParseNoise syntax ("exp:0.5", "periodic:500us@10ms", "silent",
// "exp:0.5+periodic:500us@10ms") and sweeps them as an injected-noise
// profile axis, replacing the scalar -E levels.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/profiling"
	"repro/internal/viz"
)

var (
	ranks    = flag.Int("ranks", 24, "number of ranks")
	steps    = flag.Int("steps", 26, "time steps")
	texec    = flag.Duration("texec", 3*time.Millisecond, "execution phase length")
	delayAt  = flag.Int("delay-rank", 0, "rank receiving the injected delay (-1 = none)")
	delaySt  = flag.Int("delay-step", 2, "step receiving the injected delay")
	delayDur = flag.Duration("delay", 15*time.Millisecond, "injected delay duration")
	periodic = flag.Bool("periodic", true, "periodic (ring) boundary instead of open chain")
	seed     = flag.Uint64("seed", 42, "random seed")

	eList     = flag.String("E", "0", "comma-separated injected noise levels")
	noiseList = flag.String("noise", "", "comma-separated noise profile specs (e.g. exp:0.5,periodic:500us@10ms,silent); replaces -E")
	byteList  = flag.String("bytes", "8192", "comma-separated message sizes in bytes")
	dList     = flag.String("d", "1", "comma-separated neighbor distances")
	dirList   = flag.String("dir", "bi", "comma-separated directions: uni, bi")
	topoList  = flag.String("topology", "", "comma-separated topology specs (e.g. grid:32x32:periodic); replaces -ranks/-d/-dir/-periodic")
	wlList    = flag.String("workload", "", "comma-separated workload specs (e.g. triad:18,lbm:18:cells=90); replaces the shape and kernel flags")
	machList  = flag.String("machine", "emmy", "comma-separated machine specs: emmy, meggie, simulated, all, or the ParseMachine syntax (e.g. custom:lat=1.2us:bw=6.8GB/s)")

	metricsF = flag.String("metrics", "speed,decay,idle,runtime", "comma-separated metrics: speed, decay, idle, quiet, runtime, events, membw, steptime")
	workers  = flag.Int("workers", 0, "worker pool size (0 = all cores)")
	shards   = flag.Int("shards", 0, "parallel-DES shard count per grid point (0 = serial; results are byte-identical at any count)")
	format   = flag.String("format", "table", "output format: table, csv, json or markdown")
	outFile  = flag.String("o", "", "write output to a file instead of stdout")

	specFile = flag.String("spec", "", "run a declarative sweep spec from this JSON file (\"-\" = stdin); replaces the scenario and axis flags")

	cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProf = flag.String("memprofile", "", "write a heap profile to this file when the sweep finishes")
)

func main() {
	flag.Parse()

	if *specFile != "" {
		// A spec document carries the whole sweep; only output,
		// execution and profiling flags compose with it.
		rejectConflicts("-spec", "edit the spec document instead",
			"ranks", "steps", "texec", "delay-rank", "delay-step", "delay",
			"periodic", "seed", "E", "noise", "bytes", "d", "dir",
			"topology", "workload", "machine", "metrics", "shards")
	}

	if *topoList != "" {
		// -topology supersedes the chain-only shape flags; reject
		// explicit uses instead of silently running a different scenario
		// than the flags describe.
		rejectConflicts("-topology", "fold them into the topology spec (e.g. grid:32x32:periodic:uni:d=2)",
			"ranks", "periodic", "d", "dir")
	}
	if *wlList != "" {
		// -workload supersedes both the chain shape flags and the
		// kernel parameters: each workload spec fixes its own topology,
		// execution phase and message size.
		rejectConflicts("-workload", "fold them into the workload spec (e.g. lbm:16x16:cells=90:steps=30)",
			"ranks", "periodic", "d", "dir", "topology", "texec", "bytes")
	}
	if *noiseList != "" {
		// -noise supersedes the scalar noise level: a profile axis
		// replaces the E axis entirely.
		rejectConflicts("-noise", "express levels as exp:<level> noise specs", "E")
	}

	var (
		ws  *idlewave.Spec
		err error
	)
	if *specFile != "" {
		ws, err = readSpec(*specFile)
	} else {
		ws = flagSpec()
	}
	var spec idlewave.SweepSpec
	if err == nil {
		spec, err = idlewave.SweepFromSpec(ws)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if *specFile == "" || isSet("workers") {
		// An execution knob, not part of the sweep's content (the
		// results are identical either way): an explicit -workers
		// overrides a spec's worker count.
		spec.Workers = *workers
	}

	switch *format {
	case "table", "csv", "json", "markdown":
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown format %q (want table, csv, json or markdown)\n", *format)
		os.Exit(1)
	}

	// Profile only the sweep itself, not flag parsing or output
	// formatting. stop must run before any exit: os.Exit skips defers.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}

	tbl, err := idlewave.Sweep(spec)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	w := os.Stdout
	var f *os.File
	if *outFile != "" {
		f, err = os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		w = f
	}
	switch *format {
	case "csv":
		err = tbl.WriteCSV(w)
	case "json":
		err = tbl.WriteJSON(w)
	case "markdown":
		err = tbl.WriteMarkdown(w)
	default:
		err = viz.Table(w, tbl.Rows())
	}
	if err == nil && f != nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// flagSpec spells the sweep the scenario and axis flags describe as a
// spec document: the machine axis, then the noise axis, then either the
// workload axis or the message size axis followed by the topology axis
// or the distance and direction axes.
func flagSpec() *idlewave.Spec {
	axis := func(kind, values string) idlewave.SpecAxis {
		return idlewave.SpecAxis{Kind: kind, Values: strings.Split(values, ",")}
	}
	ws := &idlewave.Spec{
		// Steps is also the default step count of every workload spec.
		Base:    idlewave.SpecScenario{Steps: *steps, Seed: *seed, Shards: *shards},
		Metrics: strings.Split(*metricsF, ","),
	}
	if *delayAt >= 0 {
		ws.Base.Delay = []idlewave.SpecDelay{{Rank: *delayAt, Step: *delaySt, Duration: delayDur.String()}}
	}
	machines := axis("machine", *machList)
	if *machList == "all" {
		machines.Values = nil
		for _, m := range cluster.All() {
			machines.Values = append(machines.Values, m.Name)
		}
	}
	ws.Axes = append(ws.Axes, machines)
	if *noiseList != "" {
		ws.Axes = append(ws.Axes, axis("noiseprofile", *noiseList))
	} else {
		ws.Axes = append(ws.Axes, axis("noise", *eList))
	}
	switch {
	case *wlList != "":
		// Each workload spec fixes its own shape, phase and message size.
		ws.Axes = append(ws.Axes, axis("workload", *wlList))
		return ws
	case *topoList != "":
		ws.Axes = append(ws.Axes, axis("bytes", *byteList), axis("topology", *topoList))
	default:
		ws.Axes = append(ws.Axes, axis("bytes", *byteList), axis("d", *dList), axis("direction", *dirList))
	}
	ws.Base.Ranks = *ranks
	if *periodic {
		ws.Base.Boundary = "periodic"
	}
	if *texec != 0 {
		ws.Base.Texec = texec.String()
	}
	return ws
}

// readSpec reads a spec document from a file ("-" = stdin).
func readSpec(path string) (*idlewave.Spec, error) {
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
		return nil, err
	}
	return idlewave.ParseSpec(data)
}

// isSet reports whether the named flag was set explicitly.
func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// rejectConflicts exits with a usage error when any of the named flags
// was set explicitly alongside the superseding flag.
func rejectConflicts(superseder, hint string, names ...string) {
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
		fmt.Fprintf(os.Stderr, "sweep: %s replaces %s; %s\n",
			superseder, strings.Join(conflict, ", "), hint)
		os.Exit(1)
	}
}
