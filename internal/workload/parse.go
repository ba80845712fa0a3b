package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// DefaultSteps is the step count Parse assumes when neither the spec
// nor the caller's Defaults provide one.
const DefaultSteps = 24

// Parse defaults for the per-kind numeric options, shared with the
// String renderers: a label omits exactly the values Parse would fill
// back in, so String output re-parses to an equal value.
const (
	defaultTriadWorkingSet   = 1.2e9     // paper V_mem
	defaultTriadMessageBytes = 2_000_000 // paper V_net
	defaultLBMCells          = 302
	defaultBulkBytes         = 8192
)

var (
	defaultDividePhase = sim.Milli(3)
	defaultBulkTexec   = sim.Milli(3)
)

// stepsLabel renders a ":steps=" option when the count differs from the
// Parse default (zero or negative counts have no spelling).
func stepsLabel(steps int) string {
	if steps <= 0 || steps == DefaultSteps {
		return ""
	}
	return fmt.Sprintf(":steps=%d", steps)
}

// formatFloatOption renders a float option value in the shortest
// spelling that re-parses exactly ("1.5e+09").
func formatFloatOption(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Defaults supplies values for parameters a workload spec leaves out.
type Defaults struct {
	// Steps is the step count applied when the spec has no steps=
	// option; zero falls back to DefaultSteps.
	Steps int
}

// Parse builds a Workload from the colon-separated flag syntax used by
// the command-line tools, parallel to topology.Parse:
//
//	triad:<shape>[:steps=<n>][:ws=<bytes>][:msg=<bytes>]
//	lbm:<shape>[:steps=<n>][:cells=<n>]
//	divide:<shape>[:steps=<n>][:phase=<duration>]
//	bulk:<shape>[:steps=<n>][:texec=<duration>][:bytes=<n>][:topology option...]
//	gen:<shape>[:steps=<n>][:phase=<dist>][:bytes=<n>][:delay=<dist>:every=<dist>][:seed=<n>]
//	mix:<part>+<part>[+<part>...]
//	replay:<file>
//
// The open-system forms (gen, mix, replay — stochastic generators, job
// mixes, trace replay) are documented in parse_open.go.
//
// <shape> is either a rank count ("triad:18" — the workload's default
// decomposition: a closed ring for triad/lbm, an open chain for divide)
// or grid extents ("lbm:16x16" — a fully periodic torus decomposition
// with that shape). For bulk, the shape plus any trailing topology
// options (open, periodic, uni, bi, d=<k>) form a topology spec exactly
// as in topology.Parse.
//
// Numeric option values accept Go literals ("ws=1.2e9"); durations use
// time.ParseDuration syntax ("phase=3ms"). Steps default to
// DefaultSteps. Examples: "triad:18", "lbm:100:cells=302:steps=50",
// "divide:16:phase=3ms", "bulk:grid:32x32:periodic" is spelled
// "bulk:32x32:periodic".
func Parse(s string) (Workload, error) {
	return ParseWith(s, Defaults{})
}

// ParseWith is Parse with caller-supplied defaults (the CLIs pass their
// -steps flag through here).
func ParseWith(s string, def Defaults) (Workload, error) {
	if def.Steps == 0 {
		def.Steps = DefaultSteps
	}
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("workload: %q: want kind:shape[:option...], e.g. triad:18 or lbm:16x16:cells=128", s)
	}
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	switch kind {
	case "triad", "lbm", "divide", "bulk", "gen", "mix", "replay":
	default:
		return nil, fmt.Errorf("workload: %q: unknown kind %q (want triad, lbm, divide, bulk, gen, mix or replay)", s, kind)
	}

	switch kind {
	case "bulk":
		return parseBulk(s, parts[1], parts[2:], def)
	case "gen":
		return parseGen(s, parts[1], parts[2:], def)
	case "mix":
		return parseMix(s, strings.Join(parts[1:], ":"), def)
	case "replay":
		return parseReplay(strings.Join(parts[1:], ":"))
	}

	ranks, topo, err := parseShape(parts[1])
	if err != nil {
		return nil, fmt.Errorf("workload: %q: %w", s, err)
	}
	steps := def.Steps
	opts := map[string]string{}
	for _, opt := range parts[2:] {
		k, v, err := splitOption(opt)
		if err != nil {
			return nil, fmt.Errorf("workload: %q: %w", s, err)
		}
		opts[k] = v
	}
	if v, ok := opts["steps"]; ok {
		steps, err = parsePositiveInt(v, "steps")
		if err != nil {
			return nil, fmt.Errorf("workload: %q: %w", s, err)
		}
		delete(opts, "steps")
	}

	var wl Workload
	switch kind {
	case "triad":
		t := StreamTriad{Ranks: ranks, Steps: steps, WorkingSet: defaultTriadWorkingSet, MessageBytes: defaultTriadMessageBytes, Topo: topo}
		if v, ok := opts["ws"]; ok {
			t.WorkingSet, err = parsePositiveFloat(v, "ws")
			if err != nil {
				return nil, fmt.Errorf("workload: %q: %w", s, err)
			}
			delete(opts, "ws")
		}
		if v, ok := opts["msg"]; ok {
			t.MessageBytes, err = parsePositiveInt(v, "msg")
			if err != nil {
				return nil, fmt.Errorf("workload: %q: %w", s, err)
			}
			delete(opts, "msg")
		}
		wl = t
	case "lbm":
		l := LBM{Ranks: ranks, Steps: steps, CellsPerDim: defaultLBMCells, Topo: topo}
		if v, ok := opts["cells"]; ok {
			l.CellsPerDim, err = parsePositiveInt(v, "cells")
			if err != nil {
				return nil, fmt.Errorf("workload: %q: %w", s, err)
			}
			delete(opts, "cells")
		}
		wl = l
	case "divide":
		d := DivideKernel{Ranks: ranks, Steps: steps, PhaseTime: defaultDividePhase, Topo: topo}
		if v, ok := opts["phase"]; ok {
			d.PhaseTime, err = parseDuration(v, "phase")
			if err != nil {
				return nil, fmt.Errorf("workload: %q: %w", s, err)
			}
			delete(opts, "phase")
		}
		wl = d
	}
	for k := range opts {
		return nil, fmt.Errorf("workload: %q: unknown option %q for kind %q", s, k, kind)
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return wl, nil
}

// parseBulk builds a BulkSync from "bulk:<shape>[:options]": the shape
// plus non-workload options form a chain/grid topology spec.
func parseBulk(orig, shape string, opts []string, def Defaults) (Workload, error) {
	b := BulkSync{Steps: def.Steps, Texec: defaultBulkTexec, Bytes: defaultBulkBytes}
	var topoOpts []string
	for _, opt := range opts {
		k, v, err := splitOption(opt)
		if err != nil {
			return nil, fmt.Errorf("workload: %q: %w", orig, err)
		}
		switch k {
		case "steps":
			b.Steps, err = parsePositiveInt(v, "steps")
		case "texec":
			b.Texec, err = parseDuration(v, "texec")
		case "bytes":
			b.Bytes, err = parsePositiveInt(v, "bytes")
		default:
			// Not a workload option: forward to the topology parser.
			topoOpts = append(topoOpts, opt)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("workload: %q: %w", orig, err)
		}
	}
	kind := "grid"
	if !strings.Contains(shape, "x") {
		kind = "chain"
	}
	spec := kind + ":" + shape
	if len(topoOpts) > 0 {
		spec += ":" + strings.Join(topoOpts, ":")
	}
	topo, err := topology.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("workload: %q: %w", orig, err)
	}
	b.Topo = topo
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// parseShape reads a workload shape: a bare rank count, or NxM[xK...]
// extents yielding a fully periodic torus decomposition.
func parseShape(shape string) (ranks int, topo topology.Topology, err error) {
	if !strings.Contains(shape, "x") {
		n, err := strconv.Atoi(strings.TrimSpace(shape))
		if err != nil || n <= 0 {
			return 0, nil, fmt.Errorf("bad rank count %q", shape)
		}
		return n, nil, nil
	}
	parts := strings.Split(shape, "x")
	extents := make([]int, 0, len(parts))
	n := 1
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return 0, nil, fmt.Errorf("bad extent %q", p)
		}
		extents = append(extents, v)
		n *= v
	}
	g, err := topology.NewGrid(extents, 1, topology.Bidirectional, topology.Periodic)
	if err != nil {
		return 0, nil, err
	}
	return n, g, nil
}

// splitOption splits "key=value" (lowercasing the key); bare words are
// returned with an empty value so topology options pass through.
func splitOption(opt string) (key, value string, err error) {
	o := strings.TrimSpace(opt)
	if o == "" {
		return "", "", fmt.Errorf("empty option")
	}
	if i := strings.IndexByte(o, '='); i >= 0 {
		return strings.ToLower(o[:i]), o[i+1:], nil
	}
	return strings.ToLower(o), "", nil
}

func parsePositiveInt(v, key string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad %s %q (want a positive integer)", key, v)
	}
	return n, nil
}

func parsePositiveFloat(v, key string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad %s %q (want a positive number)", key, v)
	}
	return f, nil
}

func parseDuration(v, key string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad %s %q (want a positive duration like 3ms)", key, v)
	}
	return sim.Time(d.Seconds()), nil
}
