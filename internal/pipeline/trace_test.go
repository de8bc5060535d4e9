package pipeline

import (
	"testing"

	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/trace"
)

// traceTestConfig is a tiny 4-layer model, enough for a p=2 ring.
func traceTestConfig() model.Config {
	return model.Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 7}
}

func traceTestBatches(n int) []data.Batch {
	gen := data.NewGenerator(99, traceTestConfig().Vocab, 8)
	out := make([]data.Batch, n)
	for i := range out {
		out[i] = gen.Next(1)
	}
	return out
}

// codesByRank collects which span codes each rank emitted.
func codesByRank(set *trace.Set) map[int32]map[trace.Code]int {
	out := make(map[int32]map[trace.Code]int)
	for _, e := range set.Events() {
		m := out[e.Rank]
		if m == nil {
			m = make(map[trace.Code]int)
			out[e.Rank] = m
		}
		m[e.Code]++
	}
	return out
}

// TestWeiPipeTraceOverlap runs an overlapped WZB2 cluster with tracing on
// and checks every instrumentation layer reported: per-stage compute spans,
// step and optimizer spans, stall spans, engine prefetch/relay spans and
// transport send/recv spans — on every rank.
func TestWeiPipeTraceOverlap(t *testing.T) {
	const p, n, iters = 2, 4, 2
	set := trace.NewSet(p, 1<<14)
	opts := Options{Overlap: true, Trace: set}
	batches := traceTestBatches(n)
	res, err := RunCluster(StrategyWZB2, p, traceTestConfig(), opts, iters,
		func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != iters {
		t.Fatalf("losses = %d", len(res.Losses))
	}
	if set.Dropped() != 0 {
		t.Fatalf("ring overflowed: %d dropped", set.Dropped())
	}

	byRank := codesByRank(set)
	if len(byRank) != p {
		t.Fatalf("ranks seen = %d, want %d", len(byRank), p)
	}
	// Per rank per iteration: p F, p B, p W stages (n/p rounds × p chunks ×
	// ... = n stages of each kind per iteration: R rounds × p chunks).
	wantStages := n * iters
	for rank, codes := range byRank {
		if codes[trace.CodeStep] != iters {
			t.Errorf("rank %d: step spans = %d, want %d", rank, codes[trace.CodeStep], iters)
		}
		for _, c := range []trace.Code{trace.CodeF, trace.CodeB, trace.CodeW} {
			if codes[c] != wantStages {
				t.Errorf("rank %d: %v spans = %d, want %d", rank, c, codes[c], wantStages)
			}
		}
		if codes[trace.CodeOpt] != iters {
			t.Errorf("rank %d: opt spans = %d, want %d", rank, codes[trace.CodeOpt], iters)
		}
		if codes[trace.CodeStall] == 0 {
			t.Errorf("rank %d: no stall spans", rank)
		}
		// Overlap engine: one prefetch per F/B stage; relays on all but the
		// final use of each belt.
		if codes[trace.CodePrefetch] != 2*wantStages {
			t.Errorf("rank %d: prefetch spans = %d, want %d", rank, codes[trace.CodePrefetch], 2*wantStages)
		}
		if codes[trace.CodeRelay] == 0 {
			t.Errorf("rank %d: no relay spans", rank)
		}
		if codes[trace.CodeSend] == 0 || codes[trace.CodeRecv] == 0 {
			t.Errorf("rank %d: transport spans missing (send=%d recv=%d)",
				rank, codes[trace.CodeSend], codes[trace.CodeRecv])
		}
	}

	// The metrics rollup must attribute compute into every step span.
	ms := trace.PerIteration(set.Events())
	if len(ms) != p*iters {
		t.Fatalf("metrics rows = %d, want %d", len(ms), p*iters)
	}
	for _, m := range ms {
		if m.Step <= 0 || m.Fwd <= 0 || m.Bwd <= 0 || m.Wgrad <= 0 {
			t.Fatalf("empty metrics row: %+v", m)
		}
	}

	// And the Chrome export must carry it all.
	blob, err := set.ChromeTrace(&trace.RunMeta{Strategy: "wzb2", P: p, N: n, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	events, meta, err := trace.ParseChrome(blob)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.Strategy != "wzb2" {
		t.Fatalf("meta = %+v", meta)
	}
	if len(events) == 0 {
		t.Fatal("no chrome events")
	}
}

// TestTraceBlockingModeStalls checks the blocking (non-overlap) path emits
// the same span families minus the engine lanes.
func TestTraceBlockingModeStalls(t *testing.T) {
	const p, n = 2, 2
	set := trace.NewSet(p, 1<<13)
	opts := Options{Trace: set}
	batches := traceTestBatches(n)
	if _, err := RunCluster(StrategyWZB2, p, traceTestConfig(), opts, 1,
		func(int) []data.Batch { return batches }); err != nil {
		t.Fatal(err)
	}
	byRank := codesByRank(set)
	for rank, codes := range byRank {
		if codes[trace.CodePrefetch] != 0 || codes[trace.CodeRelay] != 0 {
			t.Errorf("rank %d: engine spans in blocking mode", rank)
		}
		if codes[trace.CodeStall] == 0 {
			t.Errorf("rank %d: no stall spans in blocking mode", rank)
		}
		if codes[trace.CodeF] == 0 || codes[trace.CodeB] == 0 || codes[trace.CodeW] == 0 {
			t.Errorf("rank %d: compute spans missing", rank)
		}
	}
}

// TestTraceOffIsUntouched pins that a run without a trace set behaves
// identically and that instrumented runners tolerate the nil tracer (the
// rest of the suite runs with tracing off, so any panic would surface
// there too — this is the explicit contract check).
func TestTraceOffIsUntouched(t *testing.T) {
	const p, n = 2, 2
	batches := traceTestBatches(n)
	on := trace.NewSet(p, 1<<13)
	resOff, err := RunCluster(StrategyWZB2, p, traceTestConfig(), Options{Overlap: true}, 1,
		func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := RunCluster(StrategyWZB2, p, traceTestConfig(), Options{Overlap: true, Trace: on}, 1,
		func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	// Tracing must not perturb the numerics: bit-identical weights.
	if len(resOff.Weights) != len(resOn.Weights) {
		t.Fatal("weight length mismatch")
	}
	for i := range resOff.Weights {
		if resOff.Weights[i] != resOn.Weights[i] {
			t.Fatalf("weights diverge at %d: %v != %v", i, resOff.Weights[i], resOn.Weights[i])
		}
	}
}

// TestWeiPipeOptSpanExcludesStall pins the optimizer span's extent: it
// opens only after the retired gradient has arrived, so the wait for it is
// counted once, as exposed communication, and never also as optimizer
// time. No stall may lie inside an opt span, and per rank-iteration (and
// on average) opt + stall must fit in the step.
func TestWeiPipeOptSpanExcludesStall(t *testing.T) {
	const p, n, iters = 2, 4, 3
	for _, overlap := range []bool{false, true} {
		set := trace.NewSet(p, 1<<14)
		opts := Options{Overlap: overlap, Trace: set}
		batches := traceTestBatches(n)
		if _, err := RunCluster(StrategyWZB2, p, traceTestConfig(), opts, iters,
			func(int) []data.Batch { return batches }); err != nil {
			t.Fatal(err)
		}
		if set.Dropped() != 0 {
			t.Fatalf("ring overflowed: %d dropped", set.Dropped())
		}
		events := set.Events()
		nOpt := 0
		for _, o := range events {
			if o.Code != trace.CodeOpt {
				continue
			}
			nOpt++
			for _, s := range events {
				if s.Code == trace.CodeStall && s.Rank == o.Rank &&
					s.Start < o.Start+o.Dur && s.Start+s.Dur > o.Start {
					t.Fatalf("overlap=%v: rank %d stall [%d,+%d) inside opt span [%d,+%d)",
						overlap, o.Rank, s.Start, s.Dur, o.Start, o.Dur)
				}
			}
		}
		if nOpt != p*iters {
			t.Fatalf("overlap=%v: %d opt spans, want %d", overlap, nOpt, p*iters)
		}
		ms := trace.PerIteration(events)
		for _, m := range ms {
			if m.Opt+m.Exposed > m.Step {
				t.Fatalf("overlap=%v: rank %d iter %d: opt %v + stall %v > step %v",
					overlap, m.Rank, m.Iter, m.Opt, m.Exposed, m.Step)
			}
		}
		if s := trace.Summarize(ms); s.AvgOpt+s.AvgExposed > s.AvgStep {
			t.Fatalf("overlap=%v: summary opt %v + stall %v > step %v", overlap, s.AvgOpt, s.AvgExposed, s.AvgStep)
		}
	}
}
