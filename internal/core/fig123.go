package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

// runFig1 reproduces the STREAM-triad strong-scaling experiment: total
// and execution-only performance versus the Eq. 1 model, with 10 ranks
// per socket (panels a/b) and with one process per node (panel c).
func runFig1(opts Options) (*Report, error) {
	rep := &Report{}
	m := cluster.Emmy()
	triad := model.PaperTriad()

	steps := 60
	maxSockets := 9
	nodeCounts := []int{1, 2, 4, 8, 12, 16}
	if opts.Quick {
		steps = 15
		maxSockets = 4
		nodeCounts = []int{1, 2, 4}
	}

	rep.addf("panel (a/b): PPN=%d, working set %.2g B, %d time steps", m.CoresPerSocket, triad.WorkingSet, steps)
	rows := [][]string{{"sockets", "model GF/s", "measured GF/s", "exec model GF/s",
		"exec median GF/s", "exec min", "exec max"}}
	data := [][]string{{"panel", "sockets_or_nodes", "model_gfs", "measured_gfs", "exec_model_gfs", "exec_median_gfs"}}

	// Panel (a/b): one sweep job per socket count. Each job builds its
	// own natural-noise injector from a job-derived seed; injectors hold
	// per-rank RNG streams and must never be shared across concurrent
	// runs.
	type aPoint struct {
		row, dataRow []string
		ratio        float64
	}
	aPoints, err := sweep.Map(opts.Workers, maxSockets, func(job int) (aPoint, error) {
		n := job + 1
		ranks := n * m.CoresPerSocket
		var wl workload.Workload = workload.StreamTriad{
			Ranks:        ranks,
			Steps:        steps,
			WorkingSet:   triad.WorkingSet,
			MessageBytes: int(triad.MessageBytes),
		}
		natural, err := m.NaturalNoise(jobSeed(opts.Seed, job), 0)
		if err != nil {
			return aPoint{}, err
		}
		progs, err := wl.Programs()
		if err != nil {
			return aPoint{}, err
		}
		place, err := m.Placement(ranks)
		if err != nil {
			return aPoint{}, err
		}
		cfg, err := m.MemBoundConfig(place, nil)
		if err != nil {
			return aPoint{}, err
		}
		cfg.Ranks, cfg.Noise = ranks, natural
		res, err := mpisim.Run(cfg, progs)
		if err != nil {
			return aPoint{}, err
		}
		measured := triad.Performance(meanStepTime(res.Traces))

		// Execution-only performance per rank: flops of the rank's share
		// divided by its mean exec time per step.
		perRank := make([]float64, 0, ranks)
		shareFlops := triad.Elements() * triad.FlopsPerElement / float64(ranks)
		for _, rt := range res.Traces.Ranks {
			execTotal := float64(rt.TotalBy(trace.Exec))
			if execTotal > 0 {
				perRank = append(perRank, shareFlops*float64(steps)/execTotal*float64(ranks))
			}
		}
		execStats := stats.Describe(perRank)

		modelP := triad.PredictedPerformance(n)
		execModelP := triad.PredictedExecPerformance(n)
		return aPoint{
			row: []string{
				fmt.Sprint(n),
				fmt.Sprintf("%.2f", modelP/1e9),
				fmt.Sprintf("%.2f", measured/1e9),
				fmt.Sprintf("%.2f", execModelP/1e9),
				fmt.Sprintf("%.2f", execStats.Median/1e9),
				fmt.Sprintf("%.2f", execStats.Min/1e9),
				fmt.Sprintf("%.2f", execStats.Max/1e9),
			},
			dataRow: []string{"a", fmt.Sprint(n),
				fmt.Sprintf("%.4g", modelP/1e9), fmt.Sprintf("%.4g", measured/1e9),
				fmt.Sprintf("%.4g", execModelP/1e9), fmt.Sprintf("%.4g", execStats.Median/1e9)},
			ratio: modelP / measured,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var lastRatio float64
	for _, p := range aPoints {
		rows = append(rows, p.row)
		data = append(data, p.dataRow)
		lastRatio = p.ratio
	}
	var tbl strings.Builder
	if err := viz.Table(&tbl, rows); err != nil {
		return nil, err
	}
	rep.Lines = append(rep.Lines, strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")...)
	rep.finding("at %d sockets the Eq. 1 model overestimates total performance by %.2fx (paper: ~2x at 9 sockets)",
		maxSockets, lastRatio)

	// Panel (c): one process per node — no saturation, model accurate.
	rep.addf("")
	rep.addf("panel (c): PPN=1, single-core bandwidth limit %.1f GB/s", m.CoreBandwidth()/1e9)
	rowsC := [][]string{{"nodes", "model GF/s", "measured GF/s", "deviation %"}}
	type cPoint struct {
		row, dataRow []string
		dev          float64
	}
	cPoints, err := sweep.Map(opts.Workers, len(nodeCounts), func(job int) (cPoint, error) {
		n := nodeCounts[job]
		ranks := n
		if ranks < 3 {
			ranks = 3 // smallest ring; performance normalized per rank anyway
		}
		var wl workload.Workload = workload.StreamTriad{
			Ranks:        ranks,
			Steps:        steps,
			WorkingSet:   triad.WorkingSet,
			MessageBytes: int(triad.MessageBytes),
		}
		natural, err := m.NaturalNoise(jobSeed(opts.Seed, maxSockets+job), 0)
		if err != nil {
			return cPoint{}, err
		}
		progs, err := wl.Programs()
		if err != nil {
			return cPoint{}, err
		}
		place, err := m.SpreadPlacement(ranks, 1)
		if err != nil {
			return cPoint{}, err
		}
		cfg, err := m.MemBoundConfig(place, nil)
		if err != nil {
			return cPoint{}, err
		}
		cfg.Ranks, cfg.Noise = ranks, natural
		res, err := mpisim.Run(cfg, progs)
		if err != nil {
			return cPoint{}, err
		}
		measured := triad.Performance(meanStepTime(res.Traces))
		// PPN=1 model: each process streams V/ranks at the single-core
		// bandwidth.
		coreBW := m.CoreBandwidth()
		stepT := sim.Time(triad.WorkingSet/(float64(ranks)*coreBW)) + triad.CommTime()
		modelP := triad.Performance(stepT)
		dev := 100 * (modelP - measured) / modelP
		return cPoint{
			row: []string{fmt.Sprint(n),
				fmt.Sprintf("%.2f", modelP/1e9), fmt.Sprintf("%.2f", measured/1e9),
				fmt.Sprintf("%.1f", dev)},
			dataRow: []string{"c", fmt.Sprint(n),
				fmt.Sprintf("%.4g", modelP/1e9), fmt.Sprintf("%.4g", measured/1e9), "", ""},
			dev: dev,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var worst float64
	for _, p := range cPoints {
		rowsC = append(rowsC, p.row)
		data = append(data, p.dataRow)
		if p.dev > worst {
			worst = p.dev
		}
	}
	tbl.Reset()
	if err := viz.Table(&tbl, rowsC); err != nil {
		return nil, err
	}
	rep.Lines = append(rep.Lines, strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")...)
	rep.finding("PPN=1: model tracks measurement within %.1f%% (paper: good prediction without saturation)", worst)
	rep.Data = data
	return rep, nil
}

// runFig2 reproduces the LBM desynchronization timeline: per-rank
// wall-clock positions of selected time steps compared with the Eq. 1
// style regular model.
func runFig2(opts Options) (*Report, error) {
	rep := &Report{}
	m := cluster.Emmy()

	ranks := 100
	cells := 302
	snapshots := []int{1, 20, 60, 100, 500, 1000}
	if opts.Quick {
		ranks = 40
		cells = 90
		snapshots = []int{1, 10, 30}
	}
	steps := snapshots[len(snapshots)-1] + 1

	wl := workload.LBM{Ranks: ranks, Steps: steps, CellsPerDim: cells}
	natural, err := m.NaturalNoise(opts.Seed, 0)
	if err != nil {
		return nil, err
	}
	progs, err := wl.Programs()
	if err != nil {
		return nil, err
	}
	place, err := m.Placement(ranks)
	if err != nil {
		return nil, err
	}
	cfg, err := m.MemBoundConfig(place, nil)
	if err != nil {
		return nil, err
	}
	cfg.Ranks, cfg.Noise = ranks, natural
	res, err := mpisim.Run(cfg, progs)
	if err != nil {
		return nil, err
	}

	// Model: per-step slab time at saturated share + halo exchange.
	ranksPerSocket := m.CoresPerSocket
	slab := wl.MemBytesPerRank() * float64(ranksPerSocket) / m.MemBandwidth
	halo := 2 * 2 * float64(wl.HaloBytes()) / m.NetBandwidth
	modelStep := sim.Time(slab + halo)

	rep.addf("LBM proxy: %d ranks, %d^3 cells, halo %d B, model step %s",
		ranks, cells, wl.HaloBytes(), viz.FormatTime(modelStep))
	rows := [][]string{{"t", "model [s]", "median [s]", "spread min..max [ms]", "deviation %", "rank profile"}}
	data := [][]string{{"t", "model_s", "median_s", "spread_ms", "deviation_pct"}}
	ends := res.Traces.StepEndMatrix()
	var lastDev float64
	for _, t := range snapshots {
		col := make([]float64, 0, ranks)
		for r := range ends {
			if t-1 < len(ends[r]) {
				col = append(col, float64(ends[r][t-1]))
			}
		}
		d := stats.Describe(col)
		modelT := float64(modelStep) * float64(t)
		dev := 100 * (modelT - d.Median) / modelT
		lastDev = dev
		rows = append(rows, []string{
			fmt.Sprint(t),
			fmt.Sprintf("%.3f", modelT),
			fmt.Sprintf("%.3f", d.Median),
			fmt.Sprintf("%.2f..%.2f", (d.Min-d.Median)*1e3, (d.Max-d.Median)*1e3),
			fmt.Sprintf("%.2f", dev),
			viz.Sparkline(col[:min(ranks, 60)]),
		})
		data = append(data, []string{fmt.Sprint(t), fmt.Sprintf("%.5g", modelT),
			fmt.Sprintf("%.5g", d.Median), fmt.Sprintf("%.4g", (d.Max-d.Min)*1e3),
			fmt.Sprintf("%.3g", dev)})
	}
	var tbl strings.Builder
	if err := viz.Table(&tbl, rows); err != nil {
		return nil, err
	}
	rep.Lines = append(rep.Lines, strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")...)
	rep.finding("at t=%d the run is %.2f%% faster than the regular model (paper: ~2.5%% at t=10000), with a global rank-position wave pattern",
		snapshots[len(snapshots)-1], lastDev)

	// Fourier analysis of the final rank-position pattern, following the
	// Markidis et al. methodology: the paper observes a fundamental
	// "wavelength" equal to the system size (100 ranks).
	lastT := snapshots[len(snapshots)-1]
	positions := make([]float64, 0, ranks)
	for r := range ends {
		if lastT-1 < len(ends[r]) {
			positions = append(positions, float64(ends[r][lastT-1]))
		}
	}
	if wl, share, err := spectral.DominantWavelength(positions); err == nil {
		rep.addf("")
		rep.addf("spectral analysis at t=%d: dominant wavelength %.0f ranks (%.0f%% of spectral power)",
			lastT, wl, share*100)
		rep.finding("desync pattern has fundamental wavelength %.0f ranks on a %d-rank system (paper: wavelength = system size)",
			wl, ranks)
	}
	rep.Data = data
	return rep, nil
}

// runFig3 reproduces the natural-noise characterization histograms for
// the InfiniBand (SMT on) and Omni-Path (SMT off) systems.
func runFig3(opts Options) (*Report, error) {
	rep := &Report{}
	n := 330000
	if opts.Quick {
		n = 30000
	}
	data := [][]string{{"system", "mean_us", "max_us", "peaks_us"}}
	profiles := []noise.Profile{noise.EmmyProfile(), noise.MeggieProfile()}
	type histPoint struct {
		lines   []string
		dataRow []string
		finding string
	}
	points, err := sweep.Map(opts.Workers, len(profiles), func(job int) (histPoint, error) {
		prof := profiles[job]
		xs, err := prof.Sample(opts.Seed, n)
		if err != nil {
			return histPoint{}, err
		}
		var s stats.Summary
		for _, x := range xs {
			s.Add(x.Micros())
		}
		hi := s.Max() * 1.05
		h, err := stats.NewHistogram(0, hi, 40)
		if err != nil {
			return histPoint{}, err
		}
		for _, x := range xs {
			h.Add(x.Micros())
		}
		peaks := h.Peaks(n / 500)
		var p histPoint
		p.lines = append(p.lines, fmt.Sprintf("%s: %d samples, mean %.2f us, max %.1f us, %d peak(s) at %v us",
			prof.Name, n, s.Mean(), s.Max(), len(peaks), fmtPeaks(peaks)))
		var hb strings.Builder
		if err := viz.Histogram(&hb, h, 40, "us"); err != nil {
			return histPoint{}, err
		}
		p.lines = append(p.lines, strings.Split(strings.TrimRight(hb.String(), "\n"), "\n")...)
		p.lines = append(p.lines, "")
		p.dataRow = []string{prof.Name, fmt.Sprintf("%.3g", s.Mean()),
			fmt.Sprintf("%.3g", s.Max()), fmtPeaks(peaks)}
		if prof.Name == "emmy-smt-on" {
			p.finding = fmt.Sprintf("Emmy (SMT on): unimodal, mean %.1f us, max < 30 us (paper: 2.4 us / <30 us)", s.Mean())
		} else {
			p.finding = fmt.Sprintf("Meggie (SMT off): bimodal with driver peak near %.0f us (paper: ~660 us)", lastPeak(peaks))
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		rep.Lines = append(rep.Lines, p.lines...)
		data = append(data, p.dataRow)
		rep.Findings = append(rep.Findings, p.finding)
	}
	rep.Data = data
	return rep, nil
}

func fmtPeaks(ps []float64) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%.1f", p)
	}
	return strings.Join(parts, ";")
}

func lastPeak(ps []float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	return ps[len(ps)-1]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
