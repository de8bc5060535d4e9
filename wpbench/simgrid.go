package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"weipipe/internal/bench"
	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
)

const (
	simGridName = "sim-grid"
	// sweepFile is the committed grid the simulator must reproduce; it is
	// read relative to the repository root.
	sweepFile = "BENCH_sweep.json"
)

// gridCell is a committed cell with the inputs that regenerate it.
type gridCell struct {
	want bench.SweepCell
	w    cost.Workload
	top  cluster.Topology
}

// sweepTopologies builds the topology families the sweep grid names.
var sweepTopologies = map[string]func(p int) cluster.Topology{
	"nvlink-single":   cluster.NVLinkSingle,
	"nvlink-2cluster": cluster.NVLinkTwoClusters,
	"pcie-ethernet":   func(p int) cluster.Topology { return cluster.PCIeEthernet(p, 4) },
	"nvlink-ethernet": func(p int) cluster.Topology { return cluster.NVLinkEthernet(p, 4) },
}

// loadGrid reads the committed grid and shuffles its cells by seed. Each
// cell's workload comes from the report header (hidden size, sequence
// length, and layers and microbatches at the cell's ring size); microbatch
// size 1 and recomputation are the sweep's fixed settings.
func loadGrid(seed uint64) ([]gridCell, error) {
	raw, err := os.ReadFile(sweepFile)
	if err != nil {
		return nil, err
	}
	var rep bench.SweepReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", sweepFile, err)
	}
	if len(rep.Cells) == 0 {
		return nil, fmt.Errorf("%s: no cells", sweepFile)
	}
	cells := make([]gridCell, len(rep.Cells))
	for i, c := range rep.Cells {
		top, ok := sweepTopologies[c.Topology]
		l, n := rep.LayersAt[c.Workers], rep.MicrobatchesAt[c.Workers]
		if !ok || l == 0 || n == 0 {
			return nil, fmt.Errorf("%s: cell %s/%s/p=%d has no topology or shape", sweepFile, c.Strategy, c.Topology, c.Workers)
		}
		w := cost.Workload{H: rep.Hidden, S: rep.SeqLen, G: 1, L: l, N: n, P: c.Workers, Recompute: true}.WithDefaults()
		cells[i] = gridCell{want: c, w: w, top: top(c.Workers)}
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

// passStats is what one pass over the grid did.
type passStats struct {
	simulated  int     // cells that fit in memory and were simulated
	tokens     float64 // modelled iteration tokens of the simulated cells
	tasks      int     // simulator tasks built and run
	build, run time.Duration
	wall       time.Duration
}

// gridPass builds and simulates every cell and checks throughput, bubble
// ratio and the OOM verdict against the committed values. With timed set
// it also times schedule.Build and sim.Run separately.
func gridPass(cells []gridCell, timed bool, tl *tally) (passStats, error) {
	gpu := cluster.A800()
	var ps passStats
	start := time.Now()
	for _, c := range cells {
		s := c.want.Strategy
		if !c.w.FitsMemory(s, gpu) {
			tl.check(c.want.OOM, "%s/%s/p=%d: OOM, committed cell is not", s, c.want.Topology, c.want.Workers)
			continue
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		tasks, err := schedule.Build(s, schedule.Spec{W: c.w, GPU: gpu, Top: c.top, Overlap: true})
		if err != nil {
			return ps, fmt.Errorf("build %s/%s/p=%d: %w", s, c.want.Topology, c.want.Workers, err)
		}
		var t1 time.Time
		if timed {
			t1 = time.Now()
			ps.build += t1.Sub(t0)
		}
		res, err := sim.Run(tasks)
		if err != nil {
			return ps, fmt.Errorf("simulate %s/%s/p=%d: %w", s, c.want.Topology, c.want.Workers, err)
		}
		if timed {
			ps.run += time.Since(t1)
		}
		tps := c.w.Tokens() / (res.Makespan * float64(c.w.P))
		bubble := res.BubbleRatio()
		tl.check(!c.want.OOM && tps == c.want.ThroughputTPS && bubble == c.want.BubbleRatio,
			"%s/%s/p=%d: throughput %v bubble %v, committed %v %v (oom %v)", s, c.want.Topology, c.want.Workers,
			tps, bubble, c.want.ThroughputTPS, c.want.BubbleRatio, c.want.OOM)
		ps.simulated++
		ps.tokens += c.w.Tokens()
		ps.tasks += len(tasks)
	}
	ps.wall = time.Since(start)
	return ps, nil
}

// gridSetUp loads the grid and runs the warm-up pass setupReps times and
// returns the last load's cells and the median set-up time.
func gridSetUp(seed uint64, tl *tally) ([]gridCell, time.Duration, error) {
	var cells []gridCell
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap, as in training
		start := time.Now()
		var err error
		if cells, err = loadGrid(seed); err != nil {
			return nil, 0, err
		}
		if _, err := gridPass(cells, false, tl); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(time.Since(start)))
	}
	return cells, time.Duration(median(times)), nil
}

// gridLoop runs passes until d has elapsed (at least minTimedSteps of
// them), or exactly n passes when n > 0.
func gridLoop(cells []gridCell, d time.Duration, n int, timed bool, tl *tally) ([]passStats, time.Duration, error) {
	var passes []passStats
	start := time.Now()
	for {
		if n > 0 && len(passes) == n {
			break
		}
		if n == 0 && len(passes) >= minTimedSteps && time.Since(start) >= d {
			break
		}
		ps, err := gridPass(cells, timed, tl)
		if err != nil {
			return nil, 0, err
		}
		passes = append(passes, ps)
	}
	return passes, time.Since(start), nil
}

func passWalls(ps []passStats) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = ms(p.wall)
	}
	return out
}

// runSimGrid runs the simulator workload.
func runSimGrid(seed uint64, d time.Duration, traced bool) (*result, error) {
	var tl tally
	cells, setup, err := gridSetUp(seed, &tl)
	if err != nil {
		return nil, err
	}
	if traced {
		return runSimGridTraced(cells, d, &tl)
	}
	runtime.GC() // the timed loop starts at the same point of the GC cycle, as in training
	cpu0 := cpuTime()
	passes, wall, err := gridLoop(cells, d, 0, false, &tl)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	var simulated int
	var tokens float64
	for _, p := range passes {
		simulated += p.simulated
		tokens += p.tokens
	}
	n := float64(len(passes))
	p50 := median(passWalls(passes))
	fmt.Printf("timed: %d passes of %d cells (%d simulated) in %.2fs, pass p50 %.1f ms\n",
		len(passes), len(cells), passes[0].simulated, wall.Seconds(), p50)
	return &result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics: map[string]metric{
			"tokens_per_s":    {tokens / wall.Seconds(), "tok/s"},
			"step_ms_p50":     {p50, "ms"},
			"cpu_ms_per_step": {ms(cpu) / n, "ms"},
			"cells_per_s":     {float64(simulated) / wall.Seconds(), "cells/s"},
			"setup_s":         {setup.Seconds(), "s"},
			"peak_rss_mb":     {peakRSSMiB(), "MiB"},
		},
	}, nil
}

// runSimGridTraced is the per-layer run: untraced passes for d/2, then as
// many passes again with schedule.Build and sim.Run timed apart.
func runSimGridTraced(cells []gridCell, d time.Duration, tl *tally) (*result, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, _, err := gridLoop(cells, d/2, 0, false, tl)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	timed, _, err := gridLoop(cells, 0, len(plain), true, tl)
	if err != nil {
		return nil, err
	}
	var sum passStats
	for _, p := range timed {
		sum.simulated += p.simulated
		sum.tasks += p.tasks
		sum.build += p.build
		sum.run += p.run
	}
	k := float64(len(plain))
	cellsN := float64(sum.simulated)
	fmt.Printf("ledger over %d passes: build %.1f ms + run %.1f ms per pass, %d tasks per pass\n",
		len(timed), ms(sum.build)/k, ms(sum.run)/k, sum.tasks/len(timed))
	m := map[string]metric{
		"schedule.build_ms_per_cell":   {ms(sum.build) / cellsN, "ms"},
		"sim.run_ms_per_cell":          {ms(sum.run) / cellsN, "ms"},
		"sim.tasks_per_cell":           {float64(sum.tasks) / cellsN, "count"},
		"sim.tasks_per_s":              {float64(sum.tasks) / sum.run.Seconds(), "1/s"},
		"runtime.allocs_per_step":      {float64(m1.Mallocs-m0.Mallocs) / k, "count"},
		"runtime.alloc_mb_per_step":    {float64(m1.TotalAlloc-m0.TotalAlloc) / k / (1 << 20), "MiB"},
		"runtime.gc_pause_ms_per_step": {float64(m1.PauseTotalNs-m0.PauseTotalNs) / k / 1e6, "ms"},
		"trace.overhead_pct":           {(median(passWalls(timed))/median(passWalls(plain)) - 1) * 100, "%"},
		"trace.dropped_events":         {0, "count"},
	}
	return perLayerResult(*tl, m), nil
}
