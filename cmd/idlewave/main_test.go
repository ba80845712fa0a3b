package main

import (
	"bytes"
	"flag"
	"testing"

	"repro/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current binary")

// cases pin the command's stdout and exit code: the README rows, the
// ad-hoc flag corners, spec documents equal to some of them, the error
// exits and every flag conflict rejection.
var cases = []clitest.Case{
	{Name: "readme-list", Args: []string{"-list"}},
	{Name: "readme-fig4", Args: []string{"-exp", "fig4"}},
	{Name: "readme-grid", Args: []string{"-topology", "grid:16x16:periodic", "-delay", "15ms"}},
	{Name: "readme-lbm", Args: []string{"-workload", "lbm:40:cells=90", "-delay", "15ms"}},
	{Name: "readme-custom-machine", Args: []string{"-topology", "chain:32", "-machine", "custom:lat=5us:bw=1GB/s", "-noise", "periodic:500us@10ms"}},
	{Name: "readme-record-replay", Args: []string{"-workload", "gen:64:phase=exp/3ms:seed=7", "-record", "run.iwt2"},
		Then: []string{"-workload", "replay:run.iwt2"}},
	{Name: "readme-shards", Args: []string{"-topology", "chain:100000", "-steps", "12", "-shards", "4"}, Long: true},

	{Name: "chain-timeline", Args: []string{"-topology", "chain:32:periodic:uni", "-steps", "20", "-timeline"}},
	{Name: "chain-periodic", Args: []string{"-topology", "chain:32:periodic", "-steps", "20"}},
	{Name: "meggie-periodic", Args: []string{"-topology", "chain:16", "-machine", "meggie", "-noise", "periodic:500us@10ms"}},
	{Name: "lbm-workload-topology", Args: []string{"-workload", "lbm:16:cells=60", "-workload-topology", "grid:4x4:periodic", "-steps", "10"}},
	{Name: "triad-workload-topology", Args: []string{"-workload", "triad:18", "-workload-topology", "grid:3x6:periodic"}},
	{Name: "gen-steps", Args: []string{"-workload", "gen:16", "-steps", "12"}},
	{Name: "divide", Args: []string{"-workload", "divide:16", "-delay-rank", "0", "-steps", "8"}},
	{Name: "noise-level", Args: []string{"-topology", "chain:16", "-E", "0.1", "-seed", "7"}},
	{Name: "delay-rank", Args: []string{"-topology", "chain:16", "-delay-rank", "3", "-delay-step", "2", "-delay", "5ms"}},
	{Name: "no-delay", Args: []string{"-topology", "chain:16", "-delay", "0"}},
	{Name: "rendezvous", Args: []string{"-topology", "chain:16", "-bytes", "262144"}},
	{Name: "shards", Args: []string{"-topology", "torus:8x8", "-steps", "10", "-shards", "2"}},
	{Name: "mix", Args: []string{"-workload", "mix:bulk/8+gen/8/phase=exp/3ms", "-steps", "10", "-delay-rank", "2"}},

	{Name: "spec-chain", Args: []string{"-spec", "-"}, Stdin: "scenario.json"},
	{Name: "spec-meggie", Args: []string{"-spec", "-"}, Stdin: "meggie.json"},
	{Name: "spec-lbm", Args: []string{"-spec", "-", "-timeline"}, Stdin: "lbm.json"},
	{Name: "spec-axes", Args: []string{"-spec", "-"}, Stdin: "axes.json"},

	{Name: "err-machine", Args: []string{"-topology", "chain:8", "-machine", "warp"}},
	{Name: "err-noise", Args: []string{"-topology", "chain:8", "-noise", "loud"}},
	{Name: "err-topology", Args: []string{"-topology", "ring:8"}},
	{Name: "err-workload", Args: []string{"-workload", "warp:8"}},
	{Name: "err-exp", Args: []string{"-exp", "fig99"}},
	{Name: "err-none"},

	{Name: "conflict-spec", Args: []string{"-spec", "-", "-steps", "5", "-seed", "1"}, Stdin: "scenario.json"},
	{Name: "conflict-exp", Args: []string{"-exp", "fig4", "-topology", "chain:8"}},
	{Name: "conflict-machine", Args: []string{"-machine", "emmy"}},
	{Name: "conflict-noise", Args: []string{"-topology", "chain:8", "-noise", "exp:0.5", "-E", "0.1"}},
	{Name: "conflict-workload-topology", Args: []string{"-workload-topology", "grid:2x2"}},
	{Name: "conflict-bytes", Args: []string{"-workload", "triad:8", "-bytes", "100"}},
	{Name: "conflict-replay", Args: []string{"-workload", "replay:run.iwt2", "-seed", "3", "-steps", "4"}},
}

func TestGoldens(t *testing.T) {
	clitest.Goldens(t, clitest.Build(t), cases, *update)
}

// TestSpecMatchesFlags: a spec document spelling the same scenario as
// a flag set prints the same report.
func TestSpecMatchesFlags(t *testing.T) {
	bin := clitest.Build(t)
	for _, tc := range []struct {
		spec  string
		flags []string
	}{
		{"scenario.json", []string{"-topology", "chain:32:periodic", "-steps", "20"}},
		{"meggie.json", []string{"-topology", "chain:16", "-machine", "meggie", "-noise", "periodic:500us@10ms"}},
		{"lbm.json", []string{"-workload", "lbm:16:cells=60", "-workload-topology", "grid:4x4:periodic", "-steps", "10"}},
		{"gen.json", []string{"-workload", "gen:16", "-steps", "12"}},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			flags := clitest.Run(t, bin, clitest.Case{Args: tc.flags})
			spec := clitest.Run(t, bin, clitest.Case{Args: []string{"-spec", "-"}, Stdin: tc.spec})
			if !bytes.HasPrefix(flags, []byte("exit 0\n")) {
				t.Fatalf("flag run failed:\n%s", flags)
			}
			if !bytes.Equal(flags, spec) {
				t.Errorf("flags and spec disagree\n--- flags ---\n%s\n--- spec ---\n%s", flags, spec)
			}
		})
	}
}
