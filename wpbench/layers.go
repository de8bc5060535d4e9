package main

import (
	"sort"
	"time"

	"weipipe"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// perLayerUnits lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them; a layer
// the workload does no work in reports 0.
var perLayerUnits = []struct{ name, unit string }{
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.attn_core_ms", "ms"},
	{"nn.attention_ms", "ms"},
	{"nn.ffn_ms", "ms"},
	{"nn.rmsnorm_ms", "ms"},
	{"nn.embed_head_ms", "ms"},
	{"nn.attention_share", "ratio"},
	{"optim.adamw_ms", "ms"},
	{"pipeline.step_ms", "ms"},
	{"pipeline.f_ms", "ms"},
	{"pipeline.b_ms", "ms"},
	{"pipeline.w_ms", "ms"},
	{"pipeline.opt_self_ms", "ms"},
	{"pipeline.stall_ms", "ms"},
	{"pipeline.unattributed_ms", "ms"},
	{"pipeline.idle_share", "ratio"},
	{"pipeline.serial_step_ms", "ms"},
	{"comm.bytes_per_step", "B"},
	{"comm.msgs_per_step", "count"},
	{"comm.wire_writes_per_step", "count"},
	{"comm.send_ms_per_step", "ms"},
	{"comm.recv_wait_ms_per_step", "ms"},
	{"comm.retransmits_per_step", "count"},
	{"comm.dup_frames_per_step", "count"},
	{"comm.bringup_ms", "ms"},
	{"schedule.build_ms_per_cell", "ms"},
	{"sim.run_ms_per_cell", "ms"},
	{"sim.tasks_per_cell", "count"},
	{"sim.tasks_per_s", "1/s"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.alloc_mb_per_step", "MiB"},
	{"runtime.gc_pause_ms_per_step", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.dropped_events", "count"},
}

// perLayerResult completes a traced run's metrics with a 0 for every
// per-layer metric the workload has no work for.
func perLayerResult(tl tally, m map[string]metric) *result {
	for _, pl := range perLayerUnits {
		if _, ok := m[pl.name]; !ok {
			m[pl.name] = metric{0, pl.unit}
		}
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
}

// Micro-passes run each kernel or module at least microReps times and for
// at least microTime, and report the median repetition.
const (
	microReps = 5
	microTime = 300 * time.Millisecond
)

// medianRep times f repeatedly and returns the median repetition.
func medianRep(f func()) time.Duration {
	var reps []time.Duration
	start := time.Now()
	for len(reps) < microReps || time.Since(start) < microTime {
		t := time.Now()
		f()
		reps = append(reps, time.Since(t))
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	return reps[len(reps)/2]
}

// layerTimes are the kernel, module and optimizer micro-pass results.
type layerTimes struct {
	matmulGflops float64
	attnCore     time.Duration // per microbatch-layer
	attention    time.Duration // per microbatch-layer, F+B+W
	ffn          time.Duration // per microbatch-layer, F+B+W
	rmsnorm      time.Duration // both norms of a block, F+B+W
	embedHead    time.Duration // per microbatch, F+B+W
	attnShare    float64       // attention's share of one microbatch's module time
	adamw        time.Duration // one AdamW.Step over a rank's owned parameters
}

func (l layerTimes) into(m map[string]metric) {
	m["tensor.matmul_gflops"] = metric{l.matmulGflops, "GFLOP/s"}
	m["tensor.attn_core_ms"] = metric{ms(l.attnCore), "ms"}
	m["nn.attention_ms"] = metric{ms(l.attention), "ms"}
	m["nn.ffn_ms"] = metric{ms(l.ffn), "ms"}
	m["nn.rmsnorm_ms"] = metric{ms(l.rmsnorm), "ms"}
	m["nn.embed_head_ms"] = metric{ms(l.embedHead), "ms"}
	m["nn.attention_share"] = metric{l.attnShare, "ratio"}
	m["optim.adamw_ms"] = metric{ms(l.adamw), "ms"}
}

// measureLayers runs the tensor, nn and optim micro-passes at the
// workload's shapes on microbatch b.
func measureLayers(spec trainSpec, cfg weipipe.Config, b weipipe.Batch) layerTimes {
	mdl := weipipe.BuildModel(cfg)
	rng := tensor.NewRNG(cfg.Seed ^ 0x5eed)
	var l layerTimes
	l.matmulGflops = matmulGflops(spec, mdl.Cfg.FFNDim, rng)
	l.attnCore = attnCore(spec, rng)

	// Modules of block 0, fed the microbatch's real embeddings.
	g, s := b.G(), b.S()
	arena := tensor.NewArena()
	cache := func() *nn.Cache {
		c := nn.NewCache(g, s)
		c.Arena = arena
		return c
	}
	x := mdl.Embed.ForwardTokens(b.Tokens, nn.NewCache(g, s))
	dy := tensor.New(g*s, cfg.Hidden)
	tensor.FillNormal(dy, rng, 1e-2)
	module := func(m nn.Module) time.Duration {
		grads := m.Params().NewLike()
		return medianRep(func() {
			c := cache()
			m.Forward(x, c)
			m.BackwardInput(dy, c)
			m.BackwardParams(c, grads)
			arena.Reset()
		})
	}
	blk := mdl.Blocks[0]
	l.attention = module(blk.Attn)
	l.ffn = module(blk.Ffn)
	l.rmsnorm = module(blk.Norm1) + module(blk.Norm2)

	embedGrads := mdl.Embed.Params().NewLike()
	headGrads := mdl.Head.Params().NewLike()
	l.embedHead = medianRep(func() {
		ce, ch := cache(), cache()
		h := mdl.Embed.ForwardTokens(b.Tokens, ce)
		mdl.Head.ForwardLoss(h, b.Targets, ch)
		dh := mdl.Head.BackwardFromLoss(ch)
		mdl.Head.BackwardParams(ch, headGrads)
		mdl.Embed.BackwardInput(dh, ce)
		mdl.Embed.BackwardParams(ce, embedGrads)
		arena.Reset()
	})
	layers := time.Duration(cfg.Layers)
	total := layers*(l.attention+l.ffn+l.rmsnorm) + l.embedHead
	l.attnShare = float64(layers*l.attention) / float64(total)

	// AdamW over the largest chunk a rank owns.
	owned := 0
	for _, r := range mdl.Partition(ranks) {
		owned = max(owned, mdl.ChunkSize(r[0], r[1]))
	}
	opt := optim.NewAdamW(owned, optim.DefaultAdamW(lr))
	w := make([]float32, owned)
	grad := tensor.New(owned)
	tensor.FillNormal(grad, rng, 1e-3)
	l.adamw = medianRep(func() { opt.Step(w, grad.Data) })
	return l
}

// matmulGflops times the matmuls of one block plus the output head at the
// workload's microbatch shape, in the three orientations the passes use:
// NN (forward), NT (B pass) and TN (W pass).
func matmulGflops(spec trainSpec, ffn int, rng *tensor.RNG) float64 {
	t, h := spec.g*spec.seq, spec.hidden
	type shape struct{ m, k, n int }
	shapes := []shape{
		{t, h, h}, {t, h, h}, {t, h, h}, {t, h, h}, // q, k, v, o
		{t, h, ffn}, {t, h, ffn}, {t, ffn, h}, // gate, up, down
		{t, h, vocab}, // head
	}
	type operands struct{ a, b, y, dx, dw *tensor.Tensor }
	ops := make([]operands, len(shapes))
	var flops float64
	for i, sh := range shapes {
		o := operands{
			a: tensor.New(sh.m, sh.k), b: tensor.New(sh.k, sh.n),
			y: tensor.New(sh.m, sh.n), dx: tensor.New(sh.m, sh.k), dw: tensor.New(sh.k, sh.n),
		}
		tensor.FillNormal(o.a, rng, 1)
		tensor.FillNormal(o.b, rng, 0.1)
		ops[i] = o
		flops += 3 * 2 * float64(sh.m*sh.k*sh.n)
	}
	d := medianRep(func() {
		for _, o := range ops {
			tensor.MatMul(o.y, o.a, o.b)    // forward
			tensor.MatMulTB(o.dx, o.y, o.b) // B pass: dy·Wᵀ
			tensor.MatMulTA(o.dw, o.a, o.y) // W pass: xᵀ·dy
		}
	})
	return flops / d.Seconds() / 1e9
}

// attnCore times the attention core of one microbatch-layer through the
// public kernels: per (sequence, head) QKᵀ, SoftmaxRows and PV forward,
// and their backward.
func attnCore(spec trainSpec, rng *tensor.RNG) time.Duration {
	s, d := spec.seq, spec.hidden/spec.heads
	qh, kh, vh, dctx := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	for _, x := range []*tensor.Tensor{qh, kh, vh, dctx} {
		tensor.FillNormal(x, rng, 1)
	}
	scores, p, dp, ds := tensor.New(s, s), tensor.New(s, s), tensor.New(s, s), tensor.New(s, s)
	ctx, dq, dk, dv := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	return medianRep(func() {
		for i := 0; i < spec.g*spec.heads; i++ {
			tensor.MatMulTB(scores, qh, kh)
			tensor.SoftmaxRows(p, scores)
			tensor.MatMul(ctx, p, vh)
			tensor.MatMulTB(dp, dctx, vh)
			tensor.MatMulTA(dv, p, dctx)
			tensor.SoftmaxRowsBackward(ds, p, dp)
			tensor.MatMul(dq, ds, kh)
			tensor.MatMulTA(dk, ds, qh)
		}
	})
}
