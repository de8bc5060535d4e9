package pipeline

import (
	"fmt"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// WeiPipeVariant selects which of the paper's weight-passing schedules a
// WeiPipe trainer runs.
type WeiPipeVariant int

// The four schedules of the paper (§4.2). All share the same dataflow —
// and therefore produce identical gradients — but differ in the local
// interleaving of forward, B and W work, which is what the performance
// simulator distinguishes them by.
const (
	// WeiPipeNaive: a worker alternates whole-microbatch forward phases and
	// whole-microbatch backward phases; both weight belts circulate but only
	// one is used at a time (§4.2.1).
	WeiPipeNaive WeiPipeVariant = iota
	// WeiPipeInterleave: once warm, every turn pairs one forward stage of a
	// new microbatch with one backward stage of an old one, using the two
	// chunks at diagonal belt positions (§4.2.2).
	WeiPipeInterleave
	// WeiPipeZB1: like Interleave but the backward is split; a turn pairs a
	// forward with either a B pass or a (one-step-delayed) W pass (§4.2.3.1).
	WeiPipeZB1
	// WeiPipeZB2: B passes run in reverse order as usual, but the W passes
	// of a microbatch run afterwards in forward layer order, letting chunk
	// gradients complete and retire as early as possible (§4.2.3.2).
	WeiPipeZB2
)

// String returns the paper's name for the variant.
func (v WeiPipeVariant) String() string {
	switch v {
	case WeiPipeNaive:
		return "weipipe-naive"
	case WeiPipeInterleave:
		return "weipipe-interleave"
	case WeiPipeZB1:
		return "wzb1"
	case WeiPipeZB2:
		return "wzb2"
	}
	return "weipipe-unknown"
}

// WeiPipe is the weight-passing pipeline runtime. The model's modules are
// split into P contiguous chunks. Two copies of every chunk circulate
// around the worker ring as "belts":
//
//   - the forward belt, whose chunk c reaches worker w exactly when w's
//     forward pass needs modules [chunk c];
//   - the backward belt, which trails a full model-depth behind and feeds
//     each worker's backward passes in reverse chunk order.
//
// A gradient accumulator D_c rides the backward belt: each worker adds its
// local weight-gradient contribution before passing it on, so by the time
// the belt completes its final circle D_c holds the sum over all N
// microbatches — gradient aggregation without any collective (§4.2.1,
// "update pass"). Each worker keeps its own microbatches' activations and
// never ships an activation anywhere: per turn the wire carries two weight
// chunks and one gradient chunk, the paper's 36H² bytes, independent of
// both microbatch size G and sequence length S.
//
// Belt use indices are global: use j of a belt chunk is performed by worker
// j mod P during its round ⌊j/P⌋, so use j happens one hop downstream of
// use j−1 and message matching is exact. Chunk c's fully-accumulated
// gradient retires at worker P−1 and is delivered to chunk c's owner,
// worker (c−1) mod P — the resting position of the backward belt at the
// iteration boundary — which keeps the chunk's fp32 master weights and
// optimizer state and re-injects the updated chunk next iteration.
type WeiPipe struct {
	t       Transport
	mdl     *model.Model
	bounds  [][2]int
	variant WeiPipeVariant
	opts    Options

	ownChunk int // the chunk this worker owns: (rank+1) mod P
	masterW  []float32
	opt      *optim.AdamW

	// dpGroup, when non-nil, is the cross-replica communicator of this
	// chunk's owners in a hybrid WeiPipe×DP run: the fully-accumulated D is
	// additionally all-reduced across replicas before the step, and the
	// gradient average divides by globalN instead of the local microbatch
	// count.
	dpGroup Transport
	globalN int

	iter int
	curR int // rounds in the current iteration (N/P)

	// skipped counts optimizer steps dropped by the non-finite guard (or
	// the loss scaler); the decision is global, so every rank agrees.
	skipped int

	// Integrity layer state (Options.Integrity; see integrity.go). pad is
	// the checksum trailer length every belt buffer grows by (0 = off);
	// wireCodec reports the codec a tag's payload travels under, so seals
	// cover the canonical wire-value domain. guard* cache the resident
	// state's checksums between legitimate mutations.
	pad        int
	wireCodec  comm.CodecFunc
	guardW     uint32
	guardM     uint32
	guardV     uint32
	guardValid bool

	// spike, when non-nil, is the windowed grad-norm anomaly detector
	// (Options.SpikeWindow). Its verdict is driven by the globally agreed
	// Σg², so every rank's copy evolves in lock-step.
	spike *optim.SpikeDetector

	// buddy, when non-nil, shadows the ring successor's owned chunk (see
	// buddy.go). ownerIters counts this rank's committed step phases, and
	// rb* hold the one-deep pre-step rollback of the owned chunk that lets
	// elastic repair export a consistent cut.
	buddy         *buddyState
	ownerIters    int
	rbW, rbM, rbV []float32
	rbStep        int
	rbIters       int
	rbValid       bool

	// Step-phase decisions recorded for the buddy shadow replay: the
	// gradient factor, the globally agreed Σg², and the skip verdict are
	// bit-identical on every rank, so the shadow replays the owner's step
	// exactly.
	lastInv   float32
	lastSumSq float64
	lastSkip  bool

	// apool recycles per-microbatch scratch arenas across rounds and
	// iterations; at most R microbatches of this worker are in flight, so the
	// pool stabilises at that many arenas.
	apool arenaPool

	// grouped, when non-nil, activates the topology-aware grouped belt
	// (strategy wzb2g; see grouped.go): weight belts circulate on a
	// per-group sub-transport and chunks cross group boundaries once per
	// iteration via the holder-ring shard exchange. Nil runs the flat belt.
	grouped *groupedState

	// engine, when non-nil, is the per-iteration asynchronous belt engine
	// (opts.Overlap): a background goroutine that receives belt payloads in
	// schedule order, relays weight chunks downstream as soon as they
	// arrive, and double-buffers them for the compute thread. Nil in
	// blocking mode and between iterations.
	engine *beltEngine

	// stats is the transport's meter when it exposes one (nil otherwise);
	// the runner records its critical-path belt waits into it so blocking
	// and overlapped runs report comparable exposed-communication time.
	stats *comm.Stats

	// board, when non-nil, receives this rank's schedule position before
	// every compute stage so the straggler watchdog can report where a
	// stalled rank got stuck.
	board     *ProgressBoard
	boardRank int

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer

	// wGrads holds the W pass's per-module gradient sets (indexed like
	// mdl.Modules, allocated on first use). Every W pass zeroes and refills
	// the sets of its chunk, then flattens them into a belt buffer, so they
	// are scratch that lives as long as the trainer.
	wGrads []*nn.ParamSet
}

// ArenaHighWater implements ArenaMeter.
func (w *WeiPipe) ArenaHighWater() int { return w.apool.highWater() }

// post publishes the rank's schedule position to the progress board.
func (w *WeiPipe) post(mb int, phase byte) {
	if w.board != nil {
		w.board.Post(w.boardRank, w.iter, mb, phase)
	}
}

// Belt identifiers used in wire tags.
const (
	beltFwd    = 0
	beltBwd    = 1
	beltRetire = 2

	// Tag.B layout: the low beltUseBits hold the belt use index, the high
	// bits hold iter*beltCount+belt (so the belt id is recoverable as the
	// residue mod beltCount — see beltOf).
	beltCount   = 4
	beltUseBits = 36
)

// NewWeiPipe builds a WeiPipe trainer for this rank.
func NewWeiPipe(t Transport, cfg model.Config, opts Options, v WeiPipeVariant) (*WeiPipe, error) {
	mdl := model.Build(cfg)
	p := t.Size()
	if p > len(mdl.Modules) {
		return nil, fmt.Errorf("pipeline: %d ranks exceed %d modules", p, len(mdl.Modules))
	}
	if opts.Scaler != nil {
		// Every rank advances its own scaler copy; the skip decisions are
		// global, so the copies evolve in lock-step without sharing state.
		opts.Scaler = opts.Scaler.Clone()
	}
	w := &WeiPipe{
		t:       t,
		mdl:     mdl,
		bounds:  mdl.Partition(p),
		variant: v,
		opts:    opts,
	}
	w.ownChunk = (t.Rank() + 1) % p
	lo, hi := w.chunkRange(w.ownChunk)
	w.masterW = make([]float32, mdl.ChunkSize(lo, hi))
	mdl.FlattenChunk(lo, hi, w.masterW)
	w.opt = optim.NewAdamW(len(w.masterW), opts.Adam)
	if m, ok := t.(comm.Meter); ok {
		w.stats = m.CommStats()
	}
	// Arm link-tier traffic accounting whenever a group size is known, so
	// flat and grouped runs report comparable intra/inter splits.
	if gs := opts.GroupSize; gs > 1 && p%gs == 0 {
		w.stats.SetGroupSize(gs)
	}
	w.tr = opts.Trace.Rank(t.Rank())
	w.initIntegrity()
	w.refreshResidentGuards()
	if opts.SpikeWindow > 0 {
		w.spike = optim.NewSpikeDetector(opts.SpikeWindow, opts.SpikeMAD, opts.SpikeSkip)
	}
	if opts.Buddy && p >= 2 {
		w.initBuddy()
	}
	return w, nil
}

// Model implements Trainer.
func (w *WeiPipe) Model() *model.Model { return w.mdl }

// chunkRange returns the module range of chunk c.
func (w *WeiPipe) chunkRange(c int) (int, int) { return w.bounds[c][0], w.bounds[c][1] }

// owner returns the rank owning chunk c.
func (w *WeiPipe) owner(c int) int { return (c - 1 + w.t.Size()) % w.t.Size() }

// enc builds a tag B field from (iteration, belt, belt use index).
func (w *WeiPipe) enc(belt, use int) int {
	return (w.iter*beltCount+belt)<<beltUseBits | use
}

// totalUses returns the per-iteration use count of each belt: one use per
// (round, worker) pair.
func (w *WeiPipe) totalUses() int { return w.curR * w.t.Size() }

// wpState is the per-iteration working state.
type wpState struct {
	batches []data.Batch
	R       int
	// Per in-flight microbatch of this worker:
	caches     map[int][]*nn.Cache    // one cache per model module
	fwdX       map[int]*tensor.Tensor // boundary activations (forward cursor)
	bwdDy      map[int]*tensor.Tensor // boundary gradients (backward cursor)
	wRemaining map[int]int            // W passes left before caches release
	arenas     map[int]*tensor.Arena  // scratch arena, released with caches
	lossSum    float64
}

// TrainIteration implements Trainer.
func (w *WeiPipe) TrainIteration(batches []data.Batch) (loss float64, err error) {
	// Deferred first → runs last during an unwind, after the arena and
	// engine cleanups below: an ABFT kernel panic leaves no leaked state
	// and surfaces as a typed integrity error.
	defer w.recoverIntegrity(&err)
	p := w.t.Size()
	n := len(batches)
	if n%p != 0 {
		return 0, fmt.Errorf("pipeline: WeiPipe needs microbatch count divisible by %d workers", p)
	}
	// Chaos-tier resident-state flips land before the guard check, so a
	// scheduled corruption is always in the detector's field of view.
	w.injectStateFlips()
	if gerr := w.checkResidentGuards(); gerr != nil {
		return 0, gerr
	}
	w.curR = n / p
	if w.opts.Scaler != nil {
		w.mdl.Head.LossScale = float32(w.opts.Scaler.Scale())
	}
	st := &wpState{
		batches:    batches,
		R:          w.curR,
		caches:     make(map[int][]*nn.Cache),
		fwdX:       make(map[int]*tensor.Tensor),
		bwdDy:      make(map[int]*tensor.Tensor),
		wRemaining: make(map[int]int),
		arenas:     make(map[int]*tensor.Arena),
	}
	// Abort safety: when the iteration fails mid-schedule (a peer died, the
	// transport closed), the in-flight microbatches' scratch arenas must go
	// back to the pool — an aborting runner leaks nothing. On the success
	// path every arena has already been released by its final W pass.
	defer func() {
		for mb, a := range st.arenas {
			w.apool.release(a)
			delete(st.arenas, mb)
		}
	}()

	// The overlapped belt engine prefetches and relays this iteration's belt
	// messages on a background goroutine; it is armed before the injection
	// sends so the very first belt hop is already overlapped. stop() is
	// abort-safe: it drains staged payloads back to the pool on any exit.
	// The grouped belt arms it *after* the shard exchange instead: the
	// engine's cache-local ops read payloads the exchange installs.
	if w.opts.Overlap {
		defer func() {
			if w.engine != nil {
				w.engine.stop()
				w.engine = nil
			}
		}()
		if w.grouped == nil {
			w.engine = w.startBeltEngine(st.R)
		}
	}

	if w.grouped != nil {
		defer w.grouped.releaseCache()
		if err := w.groupedExchange(); err != nil {
			return 0, err
		}
		if w.opts.Overlap {
			w.engine = w.startBeltEngine(st.R)
		}
	} else {
		// Inject the owned chunk into both belts; the first user of every belt
		// chunk is worker 0 at use index 0. The first send copies the buffer
		// (the second belt still needs it); the second donates it to the
		// transport, which releases it on completion — there is no window where
		// a released buffer could still be queued for encoding.
		payload := comm.GetBuf(len(w.masterW) + w.pad)
		body := payload[:len(w.masterW)]
		copy(body, w.masterW)
		maybeRoundF16(w.opts, body)
		tagFwd := Tag{Kind: comm.KindWeight, A: w.ownChunk, B: w.enc(beltFwd, 0)}
		w.sealBelt(tagFwd, payload)
		errInj := w.t.Send(0, tagFwd, payload)
		if errInj == nil {
			errInj = comm.SendOwned(w.t, 0, Tag{Kind: comm.KindWeight, A: w.ownChunk, B: w.enc(beltBwd, 0)}, payload)
		} else {
			comm.Release(payload)
		}
		if errInj != nil {
			return 0, errInj
		}
	}

	if serr := w.runSchedule(st); serr != nil {
		return 0, serr
	}

	// Collect the fully-accumulated gradient for the owned chunk and step.
	// The optimizer span opens once the gradient is here: the wait for it
	// is exposed communication, recorded as its own stall span.
	d, err := w.beltRecv(p-1, Tag{Kind: comm.KindGrad, A: w.ownChunk, B: w.enc(beltRetire, 0)})
	if err != nil {
		return 0, err
	}
	optSpan := w.tr.Begin()
	if w.opts.BitFlip != nil {
		w.opts.BitFlip.Flip(w.t.Rank(), w.iter, FlipBeltGrad, w.beltBody(d))
	}
	if verr := w.verifyBelt(comm.SiteRetire, comm.KindGrad, w.ownChunk, d); verr != nil {
		comm.Release(d)
		return 0, verr
	}
	db := w.beltBody(d)
	if w.dpGroup != nil {
		if err := comm.RingAllReduceSum(w.dpGroup, db, w.iter+1); err != nil {
			comm.Release(d)
			return 0, err
		}
	}
	denom := n
	if w.globalN > 0 {
		denom = w.globalN
	}
	inv := gradFactor(w.opts, denom)
	for i := range db {
		db[i] *= inv
	}
	// One scalar all-reduce serves global-norm clipping, the non-finite
	// guard and the spike detector: NaN/Inf propagates through the sum, and
	// the agreed float64 is bit-identical everywhere, so every rank (and
	// every buddy shadow) reaches the identical verdict.
	var sumSq float64
	if needGlobalSumSq(w.opts) {
		sumSq, err = comm.AllReduceScalarSum(w.t, sumSquares(db), (1<<30)+w.iter)
		if err != nil {
			comm.Release(d)
			return 0, err
		}
	}
	skip := guardActive(w.opts) && !finiteSum(sumSq)
	spikeSkip := false
	if w.spike != nil {
		var isSpike bool
		isSpike, spikeSkip = w.spike.Observe(sumSq)
		if isSpike {
			flagged := int64(0)
			if spikeSkip {
				flagged = 1
			}
			w.tr.Instant(trace.CodeSpike, int64(w.iter), flagged)
		}
	}
	w.lastInv, w.lastSumSq, w.lastSkip = inv, sumSq, skip || spikeSkip
	w.stashOwnedRollback()
	if skip {
		w.skipped++
		if w.opts.Scaler != nil {
			w.opts.Scaler.Observe(false)
		}
	} else {
		if spikeSkip {
			w.skipped++
		} else {
			if c := clipScale(w.opts, sumSq); c != 1 {
				for i := range db {
					db[i] *= c
				}
			}
			w.opt.Step(w.masterW, db)
		}
		// The scaler reacts to finiteness only: a finite spike says nothing
		// about the loss scale.
		if w.opts.Scaler != nil {
			w.opts.Scaler.Observe(true)
		}
	}
	w.ownerIters++
	comm.Release(d)
	// Reflect the update in the local replica buffer so Model() exposes
	// this worker's post-step chunk.
	lo, hi := w.chunkRange(w.ownChunk)
	w.mdl.SetChunk(lo, hi, w.masterW)

	if w.buddy != nil {
		if err := w.buddyStep(); err != nil {
			return 0, err
		}
	}
	// The step (or the skip decision) was the last legitimate mutation of
	// the resident state this iteration; re-arm the guards over it.
	w.refreshResidentGuards()
	w.tr.End(optSpan, trace.CodeOpt, int64(w.iter), 0)

	w.iter++
	loss, err = comm.AllReduceScalarSum(w.t, st.lossSum, w.iter)
	if err != nil {
		return 0, err
	}
	return loss / float64(n), nil
}

// ---- local program orders (the four schedules) ---------------------------

// forEachStage drives a variant's local program order, invoking visit for
// every compute stage: phase 'F' (forward), 'B' (backward-input) or 'W'
// (backward-params) of chunk c in round k. It is the single source of truth
// for stage order — the compute loop executes it, and the overlapped belt
// engine derives its receive plan from it, so the prefetch order matches
// the consumption order by construction.
func forEachStage(v WeiPipeVariant, R, p int, visit func(phase byte, k, c int) error) error {
	switch v {
	case WeiPipeNaive:
		// Whole-microbatch forward phases alternate with whole-microbatch
		// backward phases; B and W stay fused.
		for k := 0; k < R; k++ {
			for c := 0; c < p; c++ {
				if err := visit('F', k, c); err != nil {
					return err
				}
			}
			for c := p - 1; c >= 0; c-- {
				if err := visit('B', k, c); err != nil {
					return err
				}
				if err := visit('W', k, c); err != nil {
					return err
				}
			}
		}
	case WeiPipeInterleave:
		// Once warm, each turn pairs one forward stage (new microbatch)
		// with one fused backward stage (previous microbatch).
		for k := 0; k <= R; k++ {
			for step := 0; step < p; step++ {
				if k < R {
					if err := visit('F', k, step); err != nil {
						return err
					}
				}
				if k >= 1 {
					c := p - 1 - step
					if err := visit('B', k-1, c); err != nil {
						return err
					}
					if err := visit('W', k-1, c); err != nil {
						return err
					}
				}
			}
		}
	case WeiPipeZB1:
		// The backward splits: each turn pairs a forward with a B pass, and
		// the W pass runs one turn later (bounded pending set of one).
		type pending struct{ k, c int }
		var queue []pending
		for k := 0; k <= R; k++ {
			for step := 0; step < p; step++ {
				if k < R {
					if err := visit('F', k, step); err != nil {
						return err
					}
				}
				if k >= 1 {
					c := p - 1 - step
					if err := visit('B', k-1, c); err != nil {
						return err
					}
					queue = append(queue, pending{k - 1, c})
					if len(queue) > 1 {
						q := queue[0]
						queue = queue[1:]
						if err := visit('W', q.k, q.c); err != nil {
							return err
						}
					}
				}
			}
		}
		for _, q := range queue {
			if err := visit('W', q.k, q.c); err != nil {
				return err
			}
		}
	case WeiPipeZB2:
		// All B passes of a microbatch run in reverse order (interleaved
		// with the next microbatch's forwards), then its W passes run in
		// forward chunk order so gradients retire as early as possible.
		for k := 0; k <= R; k++ {
			for step := 0; step < p; step++ {
				if k < R {
					if err := visit('F', k, step); err != nil {
						return err
					}
				}
				if k >= 1 {
					if err := visit('B', k-1, p-1-step); err != nil {
						return err
					}
				}
			}
			if k >= 1 {
				for c := 0; c < p; c++ {
					if err := visit('W', k-1, c); err != nil {
						return err
					}
				}
			}
		}
	default:
		return fmt.Errorf("pipeline: unknown WeiPipe variant %d", v)
	}
	return nil
}

// runSchedule executes the variant's program order against the compute
// stages.
func (w *WeiPipe) runSchedule(st *wpState) error {
	return forEachStage(w.variant, st.R, w.t.Size(), func(phase byte, k, c int) error {
		switch phase {
		case 'F':
			return w.fStage(st, k, c)
		case 'B':
			return w.bStage(st, k, c)
		default:
			return w.wStage(st, k, c)
		}
	})
}

// ---- belt plumbing -------------------------------------------------------

// beltRecv obtains the next belt payload the schedule consumes: from the
// prefetch engine when overlapped, or with a blocking transport receive
// otherwise. Both paths record the compute thread's wait as belt stall, so
// the two modes report comparable exposed-communication time.
func (w *WeiPipe) beltRecv(src int, tag Tag) ([]float32, error) {
	if w.engine != nil && tag.Kind == comm.KindWeight && beltOf(tag) != beltXchg {
		span := w.tr.Begin()
		payload, err := w.engine.next(tag, w.stats)
		w.tr.End(span, trace.CodeStall, int64(tag.Kind), int64(src))
		return payload, err
	}
	return w.beltRecvOn(w.t, src, tag)
}

// beltRecvOn is beltRecv's blocking transport path against an explicit
// transport (the ring, or a grouped belt's sub-ring).
func (w *WeiPipe) beltRecvOn(t Transport, src int, tag Tag) ([]float32, error) {
	span := w.tr.Begin()
	start := time.Now()
	payload, err := t.Recv(src, tag)
	wait := time.Since(start)
	w.tr.End(span, trace.CodeStall, int64(tag.Kind), int64(src))
	w.stats.RecordBeltStallKind(tag.Kind, wait)
	if tag.Kind == comm.KindWeight {
		// In overlapped mode the engine owns every weight-belt transport
		// receive, so this counter stays zero there by construction.
		w.stats.RecordComputeRecvWait(wait)
	}
	return payload, err
}

// sendBelt passes an exhausted-here belt buffer on by donating it to the
// transport, in both the blocking and the overlapped mode: the in-process
// fabric delivers the buffer itself, TCP writes it straight from the
// buffer. Either way the compute thread copies nothing, and the caller
// must not touch payload after the call.
func (w *WeiPipe) sendBelt(dst int, tag Tag, payload []float32) error {
	return comm.SendOwned(w.t, dst, tag, payload)
}

// recvBeltChunk receives belt-copy `belt` of chunk c for use index `use`,
// installs it into the local model buffer and forwards it downstream. In
// overlap mode the engine has already relayed the chunk downstream at
// receive time (store-and-forward), so only the install remains here.
func (w *WeiPipe) recvBeltChunk(belt, c, use int) error {
	if w.grouped != nil {
		return w.recvBeltChunkGrouped(belt, c, use)
	}
	src := (w.t.Rank() - 1 + w.t.Size()) % w.t.Size()
	if use == 0 {
		src = w.owner(c)
	}
	payload, err := w.beltRecv(src, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)})
	if err != nil {
		comm.Release(payload)
		return err
	}
	if w.opts.BitFlip != nil {
		w.opts.BitFlip.Flip(w.t.Rank(), w.iter, FlipBeltWeight, w.beltBody(payload))
	}
	// Verify before installing *and* before the blocking-mode forward: a
	// corrupt chunk neither enters this rank's compute nor travels on. (The
	// overlapped engine store-and-forwards at receive time; its relayed copy
	// is re-verified by the downstream consumer, so nothing corrupt is ever
	// consumed there either.)
	if verr := w.verifyBelt(comm.SiteBelt, comm.KindWeight, c, payload); verr != nil {
		comm.Release(payload)
		return verr
	}
	lo, hi := w.chunkRange(c)
	w.mdl.SetChunk(lo, hi, w.beltBody(payload))
	if w.engine == nil && use < w.totalUses()-1 {
		// The chunk is installed: the buffer travels on as it is.
		return w.sendBelt((w.t.Rank()+1)%w.t.Size(),
			Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use+1)}, payload)
	}
	comm.Release(payload)
	return nil
}

// accumulateAndForwardD folds this worker's local gradient contribution for
// chunk c into the belt accumulator and passes it on (or retires it to the
// owner after the final use). It takes ownership of local: the buffer is
// donated downstream in overlap mode and released here in blocking mode —
// callers must not touch it after the call.
func (w *WeiPipe) accumulateAndForwardD(c, use int, local []float32) error {
	body := w.beltBody(local)
	if use > 0 {
		prev := (w.t.Rank() - 1 + w.t.Size()) % w.t.Size()
		d, err := w.beltRecv(prev, Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltBwd, use)})
		if err != nil {
			comm.Release(d)
			comm.Release(local)
			return err
		}
		// Verify the incoming accumulator before folding our contribution in
		// — summing over a corrupt partial would launder the flip into a
		// freshly sealed chunk.
		if verr := w.verifyBelt(comm.SiteBelt, comm.KindGrad, c, d); verr != nil {
			comm.Release(d)
			comm.Release(local)
			return verr
		}
		db := w.beltBody(d)
		if len(db) != len(body) {
			comm.Release(d)
			comm.Release(local)
			return fmt.Errorf("pipeline: D chunk size mismatch %d != %d", len(db), len(body))
		}
		for i := range body {
			body[i] += db[i]
		}
		comm.Release(d)
	}
	maybeRoundF16(w.opts, body)
	if use < w.totalUses()-1 {
		tag := Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltBwd, use+1)}
		w.sealBelt(tag, local)
		return w.sendBelt((w.t.Rank()+1)%w.t.Size(), tag, local)
	}
	tag := Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltRetire, 0)}
	w.sealBelt(tag, local)
	// The buddy copy must go out before the retire send: the retire donates
	// the buffer in overlap mode, after which local is no longer ours.
	if err := w.buddyRetire(c, local); err != nil {
		comm.Release(local)
		return err
	}
	return w.sendBelt(w.owner(c), tag, local)
}

// ---- compute stages ------------------------------------------------------

// fStage runs the forward of chunk c for this worker's round-k microbatch.
// The belt use index equals the microbatch index kP+rank.
func (w *WeiPipe) fStage(st *wpState, k, c int) error {
	mb := k*w.t.Size() + w.t.Rank()
	w.post(mb, 'F')
	if err := w.recvBeltChunk(beltFwd, c, mb); err != nil {
		return err
	}
	b := st.batches[mb]
	caches, ok := st.caches[mb]
	if !ok {
		arena := w.apool.acquire()
		st.arenas[mb] = arena
		caches = newCaches(0, len(w.mdl.Modules), b.G(), b.S(), arena)
		st.caches[mb] = caches
		st.wRemaining[mb] = w.t.Size()
	}
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	out, loss := forwardRange(w.mdl, lo, hi, st.fwdX[mb], b, caches[lo:hi], w.opts.Recompute)
	w.tr.End(span, trace.CodeF, int64(mb), int64(c))
	st.lossSum += loss
	if out != nil {
		st.fwdX[mb] = out
	} else {
		delete(st.fwdX, mb)
	}
	return nil
}

// bStage runs the B pass of chunk c for this worker's round-k microbatch.
func (w *WeiPipe) bStage(st *wpState, k, c int) error {
	mb := k*w.t.Size() + w.t.Rank()
	w.post(mb, 'B')
	if err := w.recvBeltChunk(beltBwd, c, mb); err != nil {
		return err
	}
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	dx := backwardRangeB(w.mdl, lo, hi, st.bwdDy[mb], caches[lo:hi], w.opts.Recompute)
	w.tr.End(span, trace.CodeB, int64(mb), int64(c))
	if lo > 0 && dx != nil {
		st.bwdDy[mb] = dx
	} else {
		delete(st.bwdDy, mb)
	}
	return nil
}

// wStage runs the W pass of chunk c for this worker's round-k microbatch,
// folds the result into the belt accumulator and forwards it. When the
// microbatch's last W pass completes, its activations are released.
func (w *WeiPipe) wStage(st *wpState, k, c int) error {
	mb := k*w.t.Size() + w.t.Rank()
	w.post(mb, 'W')
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	if w.wGrads == nil {
		w.wGrads = make([]*nn.ParamSet, len(w.mdl.Modules))
	}
	grads := w.wGrads
	for i := lo; i < hi; i++ {
		if grads[i] == nil {
			grads[i] = w.mdl.Modules[i].Params().NewLike()
		} else {
			grads[i].Zero()
		}
	}
	backwardRangeW(w.mdl, lo, hi, caches[lo:hi], grads)
	size := w.mdl.ChunkSize(lo, hi)
	local := comm.GetBuf(size + w.pad)
	flattenGradsRange(w.mdl, grads, lo, hi, local[:size])
	w.tr.End(span, trace.CodeW, int64(mb), int64(c))
	// accumulateAndForwardD owns local from here (donated or released inside).
	if err := w.accumulateAndForwardD(c, mb, local); err != nil {
		return err
	}
	st.wRemaining[mb]--
	if st.wRemaining[mb] == 0 {
		delete(st.caches, mb)
		delete(st.wRemaining, mb)
		// The microbatch's boundary tensors (fwdX/bwdDy) and stashes are all
		// dead now; its scratch arena can be recycled for the next round.
		w.apool.release(st.arenas[mb])
		delete(st.arenas, mb)
	}
	return nil
}

var _ Trainer = (*WeiPipe)(nil)
