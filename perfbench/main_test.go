package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's parent re-executes it with -child arguments.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

var sink uint64

//go:noinline
func busyLoop(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestFoldAttributesBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyLoop(time.Second)
	pprof.StopCPUProfile()
	counts, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total < 20 {
		t.Fatalf("profile holds %d samples, want at least 20", total)
	}
	pkg := packageOf(runtime.FuncForPC(reflect.ValueOf(busyLoop).Pointer()).Name())
	if share := float64(counts[pkg]) / float64(total); share < 0.8 {
		t.Errorf("busy loop's package %q holds %.2f of %d samples, want >= 0.8 (counts %v)", pkg, share, total, counts)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("folding non-gzip input succeeded")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":                       "repro/internal/sim",
		"repro/internal/mpisim.(*fifo[go.shape.struct {}]).push": "repro/internal/mpisim",
		"repro/internal/serve.(*Manager).Submit.func1":           "repro/internal/serve",
		"repro.Simulate":                                           "repro",
		"net/http.(*conn).serve":                                   "net/http",
		"runtime.mallocgc":                                         "runtime",
		"sync/atomic.(*Int64).Add":                                 "sync/atomic",
		"main.busyLoop":                                            "main",
		"encoding/json.(*encodeState).marshal":                     "encoding/json",
		"internal/runtime/atomic.(*Uint32).Load":                   "internal/runtime/atomic",
		"slices.SortFunc[go.shape.[]repro/internal/wave.Sample,x]": "slices",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"repro/internal/sim":      "sim",
		"repro/internal/rng":      "rng",
		"repro/internal/stats":    "other",
		"repro":                   "other",
		"runtime":                 "runtime",
		"internal/runtime/atomic": "runtime",
		"net/http":                "stdlib_http_json",
		"encoding/json":           "stdlib_http_json",
		"syscall":                 "stdlib_http_json",
		"sort":                    "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %g, want 2", got)
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with a failed job = %g, want +Inf", got)
	}
}

// benchmarkConfig is the part of BENCHMARK.json the tests check.
type benchmarkConfig struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadConfig(t *testing.T) benchmarkConfig {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestConfigMatchesCode pins BENCHMARK.json to the workloads and metrics
// the code defines, name for name and unit for unit.
func TestConfigMatchesCode(t *testing.T) {
	cfg := loadConfig(t)
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range scenarios {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	check := func(kind string, got []metricDef, defs []metricDef) {
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("BENCHMARK.json %s metrics\n%v\ncode\n%v", kind, got, defs)
		}
		for _, d := range got {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, d.name)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range cfg.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// runBench runs the benchmark's parent for one workload and returns its
// final JSON result.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("perfbench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res
}

// TestSmoke runs every workload at reduced scale, untraced for one rep
// and traced for a short phase, and checks that every metric
// BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	cfg := loadConfig(t)
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			res := runBench(t, "-workload", s.name, "-small", "-seconds", "0.001", "-seed", "3")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range cfg.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v, present %v", m.Name, got, ok)
				} else if !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(cfg.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(cfg.EndToEnd))
			}

			dir := t.TempDir()
			res = runBench(t, "-workload", s.name, "-small", "-seconds", "1", "-seed", "3", "-trace", dir)
			if !res.Correct {
				t.Errorf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			for _, m := range cfg.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, present %v", m.Name, got, ok)
				}
			}
			if len(res.Metrics) != len(cfg.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(cfg.PerLayer))
			}
			var shares float64
			for _, l := range shareLayers {
				shares += res.Metrics[l+".self_share"].Value
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("self shares sum to %g over %g samples, want 1 ± 0.01",
					shares, res.Metrics["profile.samples"].Value)
			}
			for _, f := range []string{"spans.jsonl", "cpu.pprof"} {
				if fi, err := os.Stat(filepath.Join(dir, s.name, f)); err != nil || fi.Size() == 0 {
					t.Errorf("traced run left no %s: %v", f, err)
				}
			}
		})
	}
}
