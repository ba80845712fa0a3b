package main

import (
	"bytes"
	"flag"
	"testing"

	"repro/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current binary")

// cases pin the command's stdout and exit code: the README rows, the
// flag corners of the flag-to-spec translation, the error exits and
// every flag conflict rejection.
var cases = []clitest.Case{
	{Name: "readme-E-dir", Args: []string{"-E", "0,0.05,0.1", "-dir", "uni,bi", "-format", "csv"}},
	{Name: "readme-topology", Args: []string{"-topology", "grid:16x16:periodic,chain:256:periodic", "-E", "0,0.05"}},
	{Name: "readme-workload", Args: []string{"-workload", "triad:18,lbm:18:cells=90", "-metrics", "runtime,membw", "-format", "markdown"}},
	{Name: "readme-machine-noise", Args: []string{"-machine", "emmy,custom:lat=5us", "-noise", "silent,exp:0.5"}},
	{Name: "readme-gen", Args: []string{"-workload", "gen:64:phase=gamma/shape=2/scale=3ms:seed=7", "-E", "0,0.05,0.1"}},
	{Name: "readme-spec", Args: []string{"-spec", "-", "-format", "csv"}, Stdin: "sweep.json"},

	{Name: "machine-all", Args: []string{"-machine", "all", "-format", "csv"}},
	{Name: "shards-all-metrics", Args: []string{"-shards", "2", "-E", "0,0.05", "-metrics", "speed,decay,idle,quiet,runtime,events,membw,steptime", "-format", "csv"}},
	{Name: "open-chain", Args: []string{"-periodic=false", "-ranks", "16", "-steps", "12", "-format", "csv"}},
	{Name: "texec-0", Args: []string{"-texec", "0", "-format", "csv"}},
	{Name: "no-delay", Args: []string{"-delay-rank", "-1", "-format", "csv"}},
	{Name: "delay-rank", Args: []string{"-delay-rank", "5", "-delay-step", "3", "-delay", "9ms", "-metrics", "speed,decay", "-format", "csv"}},
	{Name: "bytes-d", Args: []string{"-bytes", "8192,262144", "-d", "1,2", "-ranks", "12", "-steps", "14", "-format", "json"}},
	{Name: "noise-profiles", Args: []string{"-noise", "exp:0.5,periodic:500us@10ms", "-seed", "7", "-format", "csv"}},
	{Name: "gen-steps", Args: []string{"-workload", "gen:16", "-steps", "10", "-E", "0", "-metrics", "runtime", "-format", "csv"}},
	{Name: "workers-1", Args: []string{"-E", "0,0.1", "-workers", "1", "-format", "csv"}},

	{Name: "err-metric", Args: []string{"-metrics", "bogus"}},
	{Name: "err-ranks", Args: []string{"-ranks", "-3"}},
	{Name: "err-steps", Args: []string{"-steps", "0"}},
	{Name: "err-delay", Args: []string{"-delay", "0"}},
	{Name: "err-format", Args: []string{"-format", "xml"}},
	{Name: "err-E", Args: []string{"-E", "0,x"}},
	{Name: "err-machine", Args: []string{"-machine", "warp"}},
	{Name: "err-workload", Args: []string{"-workload", "warp:8"}},
	{Name: "err-topology", Args: []string{"-topology", "ring:8"}},
	{Name: "err-dir", Args: []string{"-dir", "up"}},
	{Name: "err-noise", Args: []string{"-noise", "loud"}},

	{Name: "conflict-spec", Args: []string{"-spec", "-", "-ranks", "8"}, Stdin: "sweep.json"},
	{Name: "conflict-topology", Args: []string{"-topology", "chain:8", "-ranks", "8", "-dir", "uni"}},
	{Name: "conflict-workload", Args: []string{"-workload", "triad:8", "-bytes", "100", "-texec", "1ms"}},
	{Name: "conflict-noise", Args: []string{"-noise", "silent", "-E", "0.1"}},
}

func TestGoldens(t *testing.T) {
	clitest.Goldens(t, clitest.Build(t), cases, *update)
}

// TestSpecMatchesFlags: a spec document spelling the same sweep as a
// flag set prints the same CSV.
func TestSpecMatchesFlags(t *testing.T) {
	bin := clitest.Build(t)
	for _, tc := range []struct {
		spec  string
		flags []string
	}{
		{"sweep.json", []string{"-E", "0,0.05", "-dir", "uni,bi"}},
		{"gen.json", []string{"-workload", "gen:16,triad:8", "-steps", "10", "-E", "0,0.05",
			"-delay-rank", "2", "-metrics", "runtime,speed"}},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			csv := []string{"-format", "csv"}
			flags := clitest.Run(t, bin, clitest.Case{Args: append(tc.flags, csv...)})
			spec := clitest.Run(t, bin, clitest.Case{Args: append([]string{"-spec", "-"}, csv...), Stdin: tc.spec})
			if !bytes.HasPrefix(flags, []byte("exit 0\n")) {
				t.Fatalf("flag run failed:\n%s", flags)
			}
			if !bytes.Equal(flags, spec) {
				t.Errorf("flags and spec disagree\n--- flags ---\n%s\n--- spec ---\n%s", flags, spec)
			}
		})
	}
}
