package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"weipipe"
	"weipipe/internal/comm"
	"weipipe/internal/trace"
)

const (
	// ranks is the cluster size of every training workload: one rank per
	// core of the 2-core host the benchmark was sized on, so in-process
	// ranks do not bill each other's CPU time.
	ranks = 2
	vocab = 256
	lr    = 1e-3
	// batchSets distinct global batches are generated per run and cycled.
	batchSets = 4
	// minTimedSteps bounds the timed loop from below on slow hosts.
	minTimedSteps = 5
	// traceCapacity is the per-rank trace ring size; a run that overflows
	// it reports trace.dropped_events > 0.
	traceCapacity = 1 << 18
	// oracleTol is the equivalence suite's bound on a distributed
	// strategy's loss against the serial reference.
	oracleTol = 1e-4
)

// trainSpec is one training workload: strategy, fabric and model shape.
type trainSpec struct {
	strategy weipipe.Strategy
	tcp      bool // loopback TCP mesh instead of the in-process fabric
	hidden   int
	layers   int
	heads    int
	seq      int // sequence length S
	g        int // sequences per microbatch
	n        int // microbatches per step
}

// trainSpecs are the training workloads by name. longctx-wzb2-inproc runs
// by name but is not in BENCHMARK.json: both ranks compute in lock step on
// both cores, so its run-to-run spread follows the shared host's load
// (README.md, "Workloads").
var trainSpecs = map[string]trainSpec{
	"longctx-wzb2-inproc": {strategy: weipipe.WZB2, hidden: 64, layers: 4, heads: 4, seq: 512, g: 1, n: 4},
	"belt-wzb2-tcp":       {strategy: weipipe.WZB2, tcp: true, hidden: 256, layers: 8, heads: 4, seq: 16, g: 1, n: 4},
	"actpass-1f1b-tcp":    {strategy: weipipe.OneFOneB, tcp: true, hidden: 64, layers: 4, heads: 4, seq: 256, g: 2, n: 8},
}

func (s trainSpec) config(seed uint64) weipipe.Config {
	return weipipe.Config{Vocab: vocab, Hidden: s.hidden, Layers: s.layers, Heads: s.heads, MaxSeq: s.seq, Seed: seed}
}

func (s trainSpec) tokensPerStep() int { return s.n * s.g * s.seq }

// batches generates the run's global batches from the workload seed.
func (s trainSpec) batches(seed uint64) [][]weipipe.Batch {
	out := make([][]weipipe.Batch, batchSets)
	for i := range out {
		out[i] = weipipe.Microbatches(seed<<8+uint64(i), s.n, s.g, vocab, s.seq)
	}
	return out
}

// trainCluster is one set-up cluster: a trainer per rank on its own
// transport, optionally wrapped in the metering decorator.
type trainCluster struct {
	transports []comm.Transport
	meters     []*meteredTransport // nil unless metered
	trainers   []weipipe.Trainer
	tr         *trace.Set
	bringup    time.Duration
}

// newTrainCluster brings up the fabric and builds every rank's trainer.
func newTrainCluster(spec trainSpec, cfg weipipe.Config, opts weipipe.Options, metered bool) (*trainCluster, error) {
	c := &trainCluster{tr: opts.Trace}
	start := time.Now()
	if spec.tcp {
		addrs, err := weipipe.LoopbackAddrs(ranks)
		if err != nil {
			return nil, fmt.Errorf("loopback addresses: %w", err)
		}
		c.transports = make([]comm.Transport, ranks)
		errs := parallel(func(r int) error {
			t, err := weipipe.DialTCP(r, addrs)
			c.transports[r] = t
			return err
		})
		if err := firstErr(errs); err != nil {
			c.close()
			return nil, fmt.Errorf("tcp mesh: %w", err)
		}
	} else {
		c.transports = weipipe.NewInprocCluster(ranks)
	}
	c.bringup = time.Since(start)

	use := c.transports
	if metered {
		use = make([]comm.Transport, ranks)
		c.meters = make([]*meteredTransport, ranks)
		for r, t := range c.transports {
			c.meters[r] = newMetered(t)
			use[r] = c.meters[r]
		}
	}
	c.trainers = make([]weipipe.Trainer, ranks)
	errs := parallel(func(r int) error {
		tr, err := weipipe.NewTrainer(spec.strategy, use[r], cfg, opts)
		c.trainers[r] = tr
		return err
	})
	if err := firstErr(errs); err != nil {
		c.close()
		return nil, fmt.Errorf("trainers: %w", err)
	}
	return c, nil
}

// step runs one training iteration on every rank and returns each rank's
// loss and the step's wall time (until the last rank returns). iter labels
// the step's trace span.
func (c *trainCluster) step(batches []weipipe.Batch, iter int) ([]float64, time.Duration, error) {
	losses := make([]float64, ranks)
	start := time.Now()
	errs := parallel(func(r int) error {
		rt := c.tr.Rank(r)
		span := rt.Begin()
		loss, err := c.trainers[r].TrainIteration(batches)
		rt.End(span, trace.CodeStep, int64(iter), 0)
		losses[r] = loss
		return err
	})
	d := time.Since(start)
	if err := firstErr(errs); err != nil {
		return nil, 0, fmt.Errorf("step %d: %w", iter, err)
	}
	return losses, d, nil
}

// counters sums the metering decorator's and comm.Stats' counters over
// every rank (zero when the cluster is not metered).
func (c *trainCluster) counters() commCounters {
	var sum commCounters
	for _, m := range c.meters {
		sum = sum.add(m.snapshot())
	}
	return sum
}

func (c *trainCluster) close() {
	for _, t := range c.transports {
		if t != nil {
			t.Close()
		}
	}
}

// parallel runs f for every rank concurrently and returns the errors.
func parallel(f func(r int) error) []error {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r)
		}()
	}
	wg.Wait()
	return errs
}

func firstErr(errs []error) error {
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// checkStep records one step: every rank must return the same finite
// loss, and it must equal want bit for bit when want is not NaN.
func checkStep(tl *tally, iter int, losses []float64, want float64) {
	ok := !math.IsNaN(losses[0]) && !math.IsInf(losses[0], 0)
	for _, l := range losses[1:] {
		ok = ok && l == losses[0]
	}
	if !math.IsNaN(want) {
		ok = ok && losses[0] == want
	}
	tl.check(ok, "step %d: rank losses %v are not one finite value equal to %v", iter, losses, want)
}

// setUp builds the workload's cluster setupReps times, each time from
// scratch through its warm-up step (iteration 0 on the first batch), and
// keeps the last. Every warm-up must yield the same loss. It returns the
// cluster, the warm-up loss and the median set-up time.
func setUp(spec trainSpec, cfg weipipe.Config, opts weipipe.Options, batches [][]weipipe.Batch, tl *tally) (*trainCluster, float64, time.Duration, error) {
	var c *trainCluster
	var warm float64
	var times []float64
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.close()
			// Collect the discarded cluster outside the timed set-up so
			// its garbage neither inflates the next set-up's heap nor the
			// peak RSS the run reports.
			runtime.GC()
		}
		start := time.Now()
		var err error
		c, err = newTrainCluster(spec, cfg, opts, false)
		if err != nil {
			return nil, 0, 0, err
		}
		losses, _, err := c.step(batches[0], 0)
		if err != nil {
			c.close()
			return nil, 0, 0, err
		}
		times = append(times, float64(time.Since(start)))
		if i == 0 {
			warm = math.NaN()
		}
		checkStep(tl, 0, losses, warm)
		warm = losses[0]
	}
	return c, warm, time.Duration(median(times)), nil
}

// timedLoop runs steps on c from iteration 1 on. With want nil it runs
// until d has elapsed and at least minTimedSteps ran; otherwise it runs
// len(want) steps, each of whose losses must equal want's bit for bit. It
// returns each step's loss and wall time and the loop's total wall time.
func timedLoop(c *trainCluster, batches [][]weipipe.Batch, d time.Duration, want []float64, tl *tally) ([]float64, []time.Duration, time.Duration, error) {
	var losses []float64
	var steps []time.Duration
	start := time.Now()
	for k := 1; ; k++ {
		expect := math.NaN()
		if want != nil {
			if k > len(want) {
				break
			}
			expect = want[k-1]
		} else if k > minTimedSteps && time.Since(start) >= d {
			break
		}
		l, sd, err := c.step(batches[k%len(batches)], k)
		if err != nil {
			return nil, nil, 0, err
		}
		checkStep(tl, k, l, expect)
		losses = append(losses, l[0])
		steps = append(steps, sd)
	}
	return losses, steps, time.Since(start), nil
}

// serialRun trains the single-worker reference on the same batches: one
// step from the fresh model (the oracle's first-step loss), then timed
// more steps. It returns the first loss and the timed steps' wall times.
func serialRun(spec trainSpec, cfg weipipe.Config, opts weipipe.Options, batches [][]weipipe.Batch, timed int) (float64, []time.Duration, error) {
	t := weipipe.NewInprocCluster(1)[0]
	defer t.Close()
	tr, err := weipipe.NewTrainer(weipipe.Serial, t, cfg, opts)
	if err != nil {
		return 0, nil, fmt.Errorf("serial trainer: %w", err)
	}
	first, err := tr.TrainIteration(batches[0])
	if err != nil {
		return 0, nil, fmt.Errorf("serial step 0: %w", err)
	}
	var steps []time.Duration
	for k := 1; k <= timed; k++ {
		start := time.Now()
		if _, err := tr.TrainIteration(batches[k%len(batches)]); err != nil {
			return 0, nil, fmt.Errorf("serial step %d: %w", k, err)
		}
		steps = append(steps, time.Since(start))
	}
	return first, steps, nil
}

// checkOracle compares the distributed first-step loss with the serial
// reference's.
func checkOracle(tl *tally, got, want float64) {
	tl.check(math.Abs(got-want) <= oracleTol,
		"first-step loss %v differs from the serial oracle's %v by more than %g", got, want, oracleTol)
}

// runTraining runs one training workload.
func runTraining(spec trainSpec, seed uint64, d time.Duration, traced bool) (*result, error) {
	if traced {
		return runTrainingTraced(spec, seed, d)
	}
	cfg := spec.config(seed)
	opts := weipipe.DefaultOptions(lr)
	batches := spec.batches(seed)
	var tl tally

	c, warm, setup, err := setUp(spec, cfg, opts, batches, &tl)
	if err != nil {
		return nil, err
	}
	// Start the timed loop at the same point of the collector's cycle in
	// every run: the loop's garbage then grows the heap, and the reported
	// peak RSS, the same way each time.
	runtime.GC()
	cpu0 := cpuTime()
	_, steps, wall, err := timedLoop(c, batches, d, nil, &tl)
	cpu := cpuTime() - cpu0
	rss := peakRSSMiB()
	c.close()
	if err != nil {
		return nil, err
	}

	oracle, _, err := serialRun(spec, cfg, opts, batches, 0)
	if err != nil {
		return nil, err
	}
	checkOracle(&tl, warm, oracle)

	n := float64(len(steps))
	p50 := median(durationsMs(steps))
	fmt.Printf("timed: %d steps in %.2fs, step p50 %.1f ms over %d samples, warm-up loss %.6f, oracle %.6f\n",
		len(steps), wall.Seconds(), p50, len(steps), warm, oracle)
	return &result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics: map[string]metric{
			"tokens_per_s":    {n * float64(spec.tokensPerStep()) / wall.Seconds(), "tok/s"},
			"step_ms_p50":     {p50, "ms"},
			"cpu_ms_per_step": {ms(cpu) / n, "ms"},
			"cells_per_s":     {n * float64(spec.n*ranks) / wall.Seconds(), "cells/s"},
			"setup_s":         {setup.Seconds(), "s"},
			"peak_rss_mb":     {rss, "MiB"},
		},
	}, nil
}

// runTrainingTraced is the per-layer run: an untraced pass, then a traced
// and metered replay of the same steps from the same seed whose losses
// must match bit for bit, then the layer micro-passes and the serial
// baseline.
func runTrainingTraced(spec trainSpec, seed uint64, d time.Duration) (*result, error) {
	cfg := spec.config(seed)
	opts := weipipe.DefaultOptions(lr)
	batches := spec.batches(seed)
	var tl tally

	// Untraced reference pass, set up as the end-to-end run sets up: losses,
	// step times and runtime counters.
	c, warm, _, err := setUp(spec, cfg, opts, batches, &tl)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, plainSteps, _, err := timedLoop(c, batches, d/2, nil, &tl)
	runtime.ReadMemStats(&m1)
	c.close()
	if err != nil {
		return nil, err
	}
	k := len(plainSteps)

	// Traced, metered replay.
	set := trace.NewSet(ranks, traceCapacity)
	topts := opts
	topts.Trace = set
	tc, err := newTrainCluster(spec, cfg, topts, true)
	if err != nil {
		return nil, err
	}
	twarm, _, err := tc.step(batches[0], 0)
	if err != nil {
		tc.close()
		return nil, err
	}
	checkStep(&tl, 0, twarm, warm)
	before := tc.counters()
	_, tsteps, _, err := timedLoop(tc, batches, 0, plain, &tl)
	cc := tc.counters().sub(before)
	tc.close()
	if err != nil {
		return nil, err
	}

	ledger, err := reconcile(set.Events())
	if err != nil {
		return nil, fmt.Errorf("reconcile: %w", err)
	}
	var timed []breakdown
	for _, b := range ledger {
		if b.Iter > 0 {
			timed = append(timed, b)
		}
	}
	pl := meanBreakdown(timed)
	printLedger(pl, len(timed))

	oracle, serialSteps, err := serialRun(spec, cfg, opts, batches, 2)
	if err != nil {
		return nil, err
	}
	checkOracle(&tl, warm, oracle)

	lay := measureLayers(spec, cfg, batches[0][0])

	kf := float64(k)
	perRankStep := kf * ranks
	untracedP50 := median(durationsMs(plainSteps))
	tracedP50 := median(durationsMs(tsteps))
	compute := pl.F + pl.B + pl.W + pl.OptSelf
	metrics := map[string]metric{
		"pipeline.step_ms":         {ms(pl.Step), "ms"},
		"pipeline.f_ms":            {ms(pl.F), "ms"},
		"pipeline.b_ms":            {ms(pl.B), "ms"},
		"pipeline.w_ms":            {ms(pl.W), "ms"},
		"pipeline.opt_self_ms":     {ms(pl.OptSelf), "ms"},
		"pipeline.stall_ms":        {ms(pl.Stall), "ms"},
		"pipeline.unattributed_ms": {ms(pl.Unattributed), "ms"},
		"pipeline.idle_share":      {1 - float64(compute)/float64(pl.Step), "ratio"},
		"pipeline.serial_step_ms":  {median(durationsMs(serialSteps)), "ms"},

		"comm.bytes_per_step":        {float64(cc.bytes) / perRankStep, "B"},
		"comm.msgs_per_step":         {float64(cc.msgs) / perRankStep, "count"},
		"comm.wire_writes_per_step":  {float64(cc.wireWrites) / perRankStep, "count"},
		"comm.send_ms_per_step":      {ms(cc.send) / perRankStep, "ms"},
		"comm.recv_wait_ms_per_step": {ms(cc.recvWait) / perRankStep, "ms"},
		"comm.retransmits_per_step":  {float64(cc.retransmits) / perRankStep, "count"},
		"comm.dup_frames_per_step":   {float64(cc.dupFrames) / perRankStep, "count"},
		"comm.bringup_ms":            {ms(tc.bringup), "ms"},

		"runtime.allocs_per_step":      {float64(m1.Mallocs-m0.Mallocs) / kf, "count"},
		"runtime.alloc_mb_per_step":    {float64(m1.TotalAlloc-m0.TotalAlloc) / kf / (1 << 20), "MiB"},
		"runtime.gc_pause_ms_per_step": {float64(m1.PauseTotalNs-m0.PauseTotalNs) / kf / 1e6, "ms"},

		"trace.overhead_pct":   {(tracedP50/untracedP50 - 1) * 100, "%"},
		"trace.dropped_events": {float64(set.Dropped()), "count"},
	}
	lay.into(metrics)
	return perLayerResult(tl, metrics), nil
}

// printLedger prints the mean rank-step ledger and its sum, which equals
// the step time by construction of the unattributed line.
func printLedger(b breakdown, n int) {
	sum := b.F + b.B + b.W + b.OptSelf + b.Stall + b.Unattributed
	fmt.Printf("ledger over %d rank-steps (ms): F %.2f + B %.2f + W %.2f + opt_self %.2f + stall %.2f + unattributed %.2f = %.2f (step %.2f)\n",
		n, ms(b.F), ms(b.B), ms(b.W), ms(b.OptSelf), ms(b.Stall), ms(b.Unattributed), ms(sum), ms(b.Step))
}
