// Command perfbench is the repository benchmark: six fixed workloads
// that stress different layers of the simulator and the sweep service,
// each run in its own child process, with end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run. See
// README.md for the workloads, the metrics and how to run it.
//
// Usage:
//
//	go run . -seed 1                         # every workload, untraced
//	go run . -workload chain100k -seed 2     # one workload; JSON result last
//	go run . -seed 1 -trace /tmp/spans       # traced run: per-layer metrics
//	go run . -capacity                       # closed-loop capacity of service-mix
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS of every workload child: the two cores of the
// reference box, fixed so that results compare across machines.
const procs = 2

// setupRuns is how many times a run sets its workload up; setup_s is the
// median of their times.
const setupRuns = 5

// childTimeout bounds one workload's children, so a hung run still ends.
const childTimeout = 170 * time.Second

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported for every workload
// (zero where a layer does no work).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range shareLayers {
		out = append(out, metricDef{l + ".self_share", "share"})
	}
	return append(out, []metricDef{
		{"profile.samples", "count"},
		{"tracing.untraced_per_s", "1/s"},
		{"tracing.traced_per_s", "1/s"},
		{"tracing.throughput_ratio", "ratio"},
		{"mpisim.run_s", "s"},
		{"mpisim.ns_per_event", "ns"},
		{"mpisim.events", "count"},
		{"mpisim.shard.eligible", "bool"},
		{"mpisim.shard.speedup", "ratio"},
		{"netmodel.calls", "count"},
		{"netmodel.ns_per_call", "ns"},
		{"noise.draws", "count"},
		{"noise.ns_per_draw", "ns"},
		{"wave.observe_calls", "count"},
		{"wave.ns_per_observe", "ns"},
		{"wave.analytics_s", "s"},
		{"workload.programs_s", "s"},
		{"genload.expand_s", "s"},
		{"spec.encode_us", "us"},
		{"runtime.cpu_util", "share"},
		{"runtime.sched_wait_p99_us", "us"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_p99_us", "us"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.heap_peak_mb", "MB"},
		{"serve.queue_wait_p95_ms", "ms"},
		{"serve.run_p50_ms", "ms"},
		{"serve.http_overhead_p50_ms", "ms"},
		{"serve.sweep_cache_hit_frac", "share"},
		{"serve.sweep_cache_lookups", "count"},
		{"serve.point_cache_hit_frac", "share"},
		{"serve.point_cache_lookups", "count"},
		{"serve.points_computed", "count"},
		{"serve.refused", "count"},
		{"journal.bytes_per_job", "B"},
		{"journal.append_us_p50", "us"},
		{"journal.append_us_p99", "us"},
		{"loadgen.lag_p95_ms", "ms"},
		{"loadgen.job_p95_ms", "ms"},
		{"loadgen.job_p95_ms_2x", "ms"},
		{"loadgen.jobs", "count"},
		{"loadgen.jobs_2x", "count"},
	}...)
}()

// pinned holds the expected output digests per workload and seed.
//
//go:embed digests.json
var pinnedJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what a workload child prints as its last line.
type childReport struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Digest     string             `json:"digest"`
	DigestFull bool               `json:"digest_full"`
	Values     map[string]float64 `json:"values"`
	Samples    int                `json:"samples"`
	Info       []string           `json:"info,omitempty"`
}

type options struct {
	params
	trace string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		secs     = fs.Float64("seconds", 12, "length of each measured phase in seconds")
		trace    = fs.String("trace", "", "run traced instead: write spans and CPU profiles under this directory and report per-layer metrics")
		small    = fs.Bool("small", false, "run every workload at reduced scale (smoke test)")
		capacity = fs.Bool("capacity", false, "measure service-mix's closed-loop capacity in jobs/s and exit")
		child    = fs.String("child", "", "internal: run one workload in this process (setup or run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || math.IsNaN(*secs) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	o := options{params: params{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), small: *small}, trace: *trace}
	if *capacity {
		jobs, err := probeCapacity(o.params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "service-mix closed-loop capacity: %.1f jobs/s (2 clients, %s)\n", jobs, o.seconds)
		return 0
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *child != "" {
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "perfbench: -child needs exactly one -workload")
			return 2
		}
		return runChild(*child, selected[0], o, stdout)
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	var last result
	for _, w := range selected {
		res, err := runParent(exe, w, o, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		last = res
	}
	if len(selected) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func selectWorkloads(names string) ([]scenario, error) {
	if names == "" {
		return scenarios, nil
	}
	var out []scenario
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range scenarios {
			if w.name == strings.TrimSpace(n) {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// childArgs are the flags that make a child of this executable run one
// workload.
func childArgs(mode string, w scenario, o options) []string {
	args := []string{"-child", mode, "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64)}
	if o.small {
		args = append(args, "-small")
	}
	if o.trace != "" {
		args = append(args, "-trace", filepath.Join(o.trace, w.name))
	}
	return args
}

// runParent runs one workload: setup-only children first (untraced
// runs), then the measuring child, and prints the workload's report.
func runParent(exe string, w scenario, o options, stdout io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var setups []float64
	if o.trace == "" {
		for i := 1; i < setupRuns; i++ {
			ready, _, _, err := spawn(ctx, exe, childArgs("setup", w, o))
			if err != nil {
				return result{}, err
			}
			setups = append(setups, ready.Seconds())
		}
	}
	ready, rep, maxrssKB, err := spawn(ctx, exe, childArgs("run", w, o))
	if err != nil {
		return result{}, err
	}
	if rep.Values == nil {
		return result{}, errors.New("the measuring child printed no report")
	}
	setups = append(setups, ready.Seconds())

	res := result{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	defs := perLayer
	if o.trace == "" {
		defs = endToEnd
		rep.Values["setup_s"] = median(setups)
		// Linux reports ru_maxrss in KiB.
		rep.Values["peak_rss_mb"] = float64(maxrssKB) / 1024
	}
	for _, d := range defs {
		v, ok := rep.Values[d.name]
		if !ok {
			return result{}, fmt.Errorf("child reported no %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		n := ""
		switch d.name {
		case "setup_s":
			n = fmt.Sprintf("  (n=%d)", len(setups))
		case "latency_p50_ms", "latency_p90_ms":
			n = fmt.Sprintf("  (n=%d)", rep.Samples)
		}
		fmt.Fprintf(stdout, "%-14s %-28s %.6g %s%s\n", w.name, d.name, v, d.unit, n)
	}
	if o.trace != "" {
		fmt.Fprintf(stdout, "%-14s tracing overhead: traced throughput is %.3fx the untraced one\n",
			w.name, rep.Values["tracing.throughput_ratio"])
	}
	for _, line := range rep.Info {
		fmt.Fprintf(stdout, "%-14s %s\n", w.name, line)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "%-14s FAIL %s\n", w.name, p)
	}
	fmt.Fprintf(stdout, "%-14s digest %s %s\n", w.name, rep.Digest, checkPin(w.name, o, rep, &res))
	res.Correct = res.Failed == 0 && len(rep.Problems) == 0
	return res, nil
}

// checkPin compares the digest with the pinned one for this workload and
// seed, counting a mismatch as a failed operation.
func checkPin(name string, o options, rep childReport, res *result) string {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		res.Failed++
		return "(pinned digests unreadable: " + err.Error() + ")"
	}
	want, ok := pins[name][strconv.FormatUint(o.seed, 10)]
	switch {
	case !ok || o.small || !rep.DigestFull:
		return "(not pinned at this seed and scale)"
	case want == rep.Digest:
		return "(matches the pinned digest)"
	}
	res.Failed++
	return "MISMATCH: pinned " + want
}

// spawn runs a child and returns how long after its start it reported
// its inputs ready, its report, and its peak resident set in KiB.
func spawn(ctx context.Context, exe string, args []string) (time.Duration, childReport, int64, error) {
	var rep childReport
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, rep, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, rep, 0, err
	}
	var ready time.Duration
	var last []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if ready == 0 && sc.Text() == "ready" {
			ready = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	werr := cmd.Wait()
	if werr != nil {
		return 0, rep, 0, fmt.Errorf("child %v: %w", args, werr)
	}
	if ready == 0 {
		return 0, rep, 0, errors.New("child never reported its inputs ready")
	}
	var maxrss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxrss = ru.Maxrss
	}
	if len(last) > 0 {
		if err := json.Unmarshal(last, &rep); err != nil {
			return 0, rep, 0, fmt.Errorf("child report: %w", err)
		}
	}
	return ready, rep, maxrss, nil
}

// runChild sets the workload up, reports it ready on stdout and, in run
// mode, measures it and prints a childReport as the last line.
func runChild(mode string, w scenario, o options, stdout io.Writer) int {
	inst, err := w.setup(o.params, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if mode == "setup" {
		if err := inst.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	runtime.GC()
	plain := inst.measure(o.seconds, nil)
	if err := inst.close(); err != nil {
		plain.fail("close: %v", err)
	}
	rep := childReport{
		Attempted: plain.ops, Failed: plain.failed, Problems: plain.problems,
		Digest: plain.digest, DigestFull: plain.full, Samples: len(plain.lat),
		Info: plain.info, Values: map[string]float64{},
	}
	if o.trace == "" {
		rep.Values["throughput_per_s"] = plain.throughput()
		rep.Values["latency_p50_ms"] = finite(percentile(plain.lat, 0.5))
		rep.Values["latency_p90_ms"] = finite(percentile(plain.lat, 0.9))
	} else if err := traced(w, o, plain, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// traced repeats the measured phase on a fresh set-up with the tap and a
// CPU profile on, writes the spans and the profile under o.trace, and
// fills rep with the per-layer metrics.
func traced(w scenario, o options, plain *phase, rep *childReport) error {
	if err := os.MkdirAll(o.trace, 0o755); err != nil {
		return err
	}
	tp := newTap()
	inst, err := w.setup(o.params, tp)
	if err != nil {
		return err
	}
	runtime.GC()
	var prof bytes.Buffer
	before := readRuntime()
	heap := watchHeap()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		inst.close()
		return err
	}
	ph := inst.measure(o.seconds, tp)
	pprof.StopCPUProfile()
	peak := heap.stop()
	after := readRuntime()
	if err := inst.close(); err != nil {
		ph.fail("close: %v", err)
	}

	rep.Attempted += ph.ops
	rep.Failed += ph.failed
	rep.Problems = append(rep.Problems, ph.problems...)
	if ph.digest != plain.digest {
		rep.Failed++
		rep.Problems = append(rep.Problems, "the traced run's outputs differ from the untraced run's")
	}
	if err := os.WriteFile(filepath.Join(o.trace, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	if err := tp.writeSpans(filepath.Join(o.trace, "spans.jsonl")); err != nil {
		return err
	}

	v := rep.Values
	for _, d := range perLayer {
		v[d.name] = 0
	}
	counts, total, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for l, share := range layerShares(counts, total) {
		v[l+".self_share"] = share
	}
	v["profile.samples"] = float64(total)
	v["tracing.untraced_per_s"] = plain.throughput()
	v["tracing.traced_per_s"] = ph.throughput()
	if plain.throughput() > 0 {
		v["tracing.throughput_ratio"] = ph.throughput() / plain.throughput()
	}

	ops := float64(max(ph.ops, 1))
	if runs := seconds(tp.durations("mpisim.Run")); len(runs) > 0 {
		v["mpisim.run_s"] = median(runs)
		if ev := ph.layer["mpisim.events"]; ev > 0 {
			v["mpisim.ns_per_event"] = median(runs) * 1e9 / ev
		}
	}
	clock := clockCost()
	v["netmodel.calls"] = float64(tp.net.calls.Load()) / ops
	v["netmodel.ns_per_call"] = tp.net.nsPerCall(clock)
	v["noise.draws"] = float64(tp.noise.calls.Load()) / ops
	v["noise.ns_per_draw"] = tp.noise.nsPerCall(clock)
	v["wave.observe_calls"] = float64(tp.observe.calls.Load()) / ops
	v["wave.ns_per_observe"] = tp.observe.nsPerCall(clock)
	var analytics time.Duration
	for _, name := range []string{"wave.Metric", "wave.Front"} {
		analytics += sum(tp.durations(name))
	}
	v["wave.analytics_s"] = analytics.Seconds() / ops
	v["workload.programs_s"] = median(seconds(tp.durations("workload.Programs")))
	v["genload.expand_s"] = median(seconds(tp.durations("genload.Programs")))
	v["spec.encode_us"] = median(seconds(tp.durations("spec.Encode"))) * 1e6

	wall := after.at.Sub(before.at).Seconds()
	v["runtime.cpu_util"] = (after.cpu - before.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0)))
	v["runtime.sched_wait_p99_us"] = histP(before, after, mSchedLat, 0.99) * 1e6
	if cpu := after.num(mTotalCPU) - before.num(mTotalCPU); cpu > 0 {
		v["runtime.gc_cpu_share"] = (after.num(mGCCPU) - before.num(mGCCPU)) / cpu
	}
	v["runtime.gc_cycles"] = after.num(mGCCycles) - before.num(mGCCycles)
	v["runtime.gc_pause_p99_us"] = histP(before, after, mGCPauses, 0.99) * 1e6
	v["runtime.alloc_bytes_per_op"] = (after.num(mAllocB) - before.num(mAllocB)) / ops
	v["runtime.allocs_per_op"] = (after.num(mAllocObj) - before.num(mAllocObj)) / ops
	v["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)

	for name, x := range ph.layer {
		if !isPerLayer(name) {
			return fmt.Errorf("workload reported unknown per-layer metric %q", name)
		}
		v[name] = x
	}
	return nil
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}
