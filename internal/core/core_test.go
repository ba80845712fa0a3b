package core

import (
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Seed: 42, Quick: true}

func runOK(t *testing.T, id string) *Report {
	t.Helper()
	rep, err := Run(id, quick)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if rep.ID != id || rep.Title == "" {
		t.Errorf("report metadata: %+v", rep)
	}
	if len(rep.Data) < 2 {
		t.Errorf("%s: no data rows", id)
	}
	if rep.String() == "" {
		t.Errorf("%s: empty rendering", id)
	}
	return rep
}

func TestRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) != 12 {
		t.Fatalf("registry has %d experiments, want 12: %v", len(ids), ids)
	}
	for _, id := range ids {
		title, err := Title(id)
		if err != nil || title == "" {
			t.Errorf("Title(%s): %q, %v", id, title, err)
		}
	}
	if _, err := Title("nope"); err == nil {
		t.Error("unknown title accepted")
	}
	if _, err := Run("nope", quick); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// dataVal extracts a float from a named column of a data row.
func dataVal(t *testing.T, rep *Report, row int, col string) float64 {
	t.Helper()
	idx := -1
	for i, h := range rep.Data[0] {
		if h == col {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("%s: no column %q in %v", rep.ID, col, rep.Data[0])
	}
	v, err := strconv.ParseFloat(rep.Data[row][idx], 64)
	if err != nil {
		t.Fatalf("%s row %d col %s: %v", rep.ID, row, col, err)
	}
	return v
}

func TestFig1ShapeHolds(t *testing.T) {
	rep := runOK(t, "fig1")
	// Panel a rows: model >= measured (model is optimistic), and the
	// exec-only median must beat the exec model at the largest socket
	// count (desync-induced overlap).
	var lastA int
	for i := 1; i < len(rep.Data); i++ {
		if rep.Data[i][0] == "a" {
			lastA = i
			model := dataVal(t, rep, i, "model_gfs")
			meas := dataVal(t, rep, i, "measured_gfs")
			if meas > model*1.02 {
				t.Errorf("fig1 row %d: measured %.2f exceeds optimistic model %.2f", i, meas, model)
			}
		}
	}
	// Exec-only performance sits near the linear-scaling exec model: DMA
	// traffic from communication steals some bandwidth (below), while
	// desynchronization-induced overlap pushes it up (above, the paper's
	// headline effect, which needs hundreds of steps to fully develop —
	// see the memband package tests for the mechanism in isolation).
	execModel := dataVal(t, rep, lastA, "exec_model_gfs")
	execMeas := dataVal(t, rep, lastA, "exec_median_gfs")
	if execMeas < execModel*0.7 || execMeas > execModel*1.8 {
		t.Errorf("fig1: exec-only measured %.2f implausible vs exec model %.2f", execMeas, execModel)
	}
}

func TestFig2ModelDeviationSmallButPresent(t *testing.T) {
	rep := runOK(t, "fig2")
	last := len(rep.Data) - 1
	dev := dataVal(t, rep, last, "deviation_pct")
	// The run must be FASTER than the non-overlapping model (automatic
	// overlap, the paper's observation) but by a bounded margin. Our
	// fully non-blocking simulated fabric overlaps more than the real
	// machine (paper: 2.5%), so the upper bound is generous.
	if dev < -5 || dev > 40 {
		t.Errorf("fig2 deviation %.2f%% implausible", dev)
	}
	spread := dataVal(t, rep, last, "spread_ms")
	if spread < 0 {
		t.Errorf("negative spread %.2f", spread)
	}
}

func TestFig3Shapes(t *testing.T) {
	rep := runOK(t, "fig3")
	joined := strings.Join(rep.Findings, "\n")
	if !strings.Contains(joined, "unimodal") || !strings.Contains(joined, "bimodal") {
		t.Errorf("fig3 findings missing shape statements: %v", rep.Findings)
	}
	// Meggie row must list at least two peaks.
	for i := 1; i < len(rep.Data); i++ {
		if strings.HasPrefix(rep.Data[i][0], "meggie") {
			if !strings.Contains(rep.Data[i][3], ";") {
				t.Errorf("meggie peaks = %q, want at least two", rep.Data[i][3])
			}
		}
	}
}

func TestFig4NoUpstreamLeak(t *testing.T) {
	rep := runOK(t, "fig4")
	for _, f := range rep.Findings {
		if strings.Contains(f, "WARNING") {
			t.Errorf("fig4: %s", f)
		}
	}
	// Wave front rows: ranks 6,7,8 at hops 1,2,3.
	if rep.Data[1][0] != "6" || rep.Data[1][1] != "1" {
		t.Errorf("fig4 first front row = %v", rep.Data[1])
	}
}

func TestFig5AllPanelsMatchEq2(t *testing.T) {
	rep := runOK(t, "fig5")
	if len(rep.Data) != 9 {
		t.Fatalf("fig5 rows = %d, want 8 panels + header", len(rep.Data))
	}
	for i := 1; i < len(rep.Data); i++ {
		relErr := dataVal(t, rep, i, "rel_err")
		if relErr > 0.15 {
			t.Errorf("panel %s: speed off Eq.2 by %.1f%%", rep.Data[i][0], relErr*100)
		}
		backward := rep.Data[i][8]
		proto, dir := rep.Data[i][1], rep.Data[i][2]
		wantBackward := proto == "rendezvous" || dir == "bidirectional"
		if (backward == "true") != wantBackward {
			t.Errorf("panel %s (%s %s): backward=%s, want %v",
				rep.Data[i][0], proto, dir, backward, wantBackward)
		}
	}
}

func TestFig6CancellationOrdering(t *testing.T) {
	rep := runOK(t, "fig6")
	quiet := map[string]float64{}
	idle := map[string]float64{}
	for i := 1; i < len(rep.Data); i++ {
		quiet[rep.Data[i][0]] = dataVal(t, rep, i, "quiet_step")
		idle[rep.Data[i][0]] = dataVal(t, rep, i, "total_idle_s")
	}
	// Equal delays cancel completely and quickly.
	if quiet["equal"] < 0 {
		t.Error("equal delays never cancelled")
	}
	// Partial cancellation (half) leaves surviving waves that die later
	// than the fully-cancelling equal case; random injections include
	// still longer survivors.
	if quiet["half"] >= 0 && quiet["half"] < quiet["equal"] {
		t.Errorf("half quiet step %v earlier than equal %v", quiet["half"], quiet["equal"])
	}
	if quiet["random"] >= 0 && quiet["random"] < quiet["equal"] {
		t.Errorf("random quiet step %v earlier than equal %v", quiet["random"], quiet["equal"])
	}
	if idle["equal"] <= 0 {
		t.Error("equal-delay variant recorded no idle time")
	}
}

func TestFig7Doubling(t *testing.T) {
	rep := runOK(t, "fig7")
	uni := dataVal(t, rep, 1, "speed_ranks_per_s")
	bi := dataVal(t, rep, 2, "speed_ranks_per_s")
	ratio := bi / uni
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("fig7 speed ratio = %.2f, want ~2", ratio)
	}
}

func TestFig8DecayIncreasesWithNoise(t *testing.T) {
	rep := runOK(t, "fig8")
	// For every system, beta at the highest E must exceed beta at E=0.
	type pt struct{ e, beta float64 }
	series := map[string][]pt{}
	for i := 1; i < len(rep.Data); i++ {
		name := rep.Data[i][0]
		series[name] = append(series[name], pt{
			dataVal(t, rep, i, "E_pct"),
			dataVal(t, rep, i, "beta_median_us_per_rank"),
		})
	}
	if len(series) != 3 {
		t.Fatalf("fig8 systems = %d, want 3", len(series))
	}
	for name, pts := range series {
		first, last := pts[0], pts[len(pts)-1]
		if last.beta <= first.beta {
			t.Errorf("%s: beta(E=%.0f%%)=%.1f not above beta(E=%.0f%%)=%.1f",
				name, last.e, last.beta, first.e, first.beta)
		}
		if first.beta > 200 {
			t.Errorf("%s: noise-free beta = %.1f us/rank, want near zero", name, first.beta)
		}
	}
}

func TestFig9Elimination(t *testing.T) {
	rep := runOK(t, "fig9")
	excess0 := dataVal(t, rep, 1, "excess_ms")
	excessHi := dataVal(t, rep, len(rep.Data)-1, "excess_ms")
	// Noise-free: excess ~ 6 ms.
	if excess0 < 4 || excess0 > 8 {
		t.Errorf("noise-free excess = %.2f ms, want ~6", excess0)
	}
	// Strong noise: wave largely absorbed.
	if excessHi > excess0*0.6 {
		t.Errorf("E=25%% excess = %.2f ms, want well below noise-free %.2f", excessHi, excess0)
	}
}

func TestEq2SweepAccuracy(t *testing.T) {
	rep := runOK(t, "eq2")
	for i := 1; i < len(rep.Data); i++ {
		if relErr := dataVal(t, rep, i, "rel_err"); relErr > 0.15 {
			t.Errorf("eq2 row %v: rel err %.1f%%", rep.Data[i], relErr*100)
		}
	}
}
