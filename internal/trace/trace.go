// Package trace is the runtime event tracer for real training runs: a
// low-overhead, per-rank ring buffer of timed spans emitted by the pipeline
// runners (F/B/W stages, optimizer steps, checkpoint barriers), the
// overlapped belt engine (prefetch, relay, staged-wait stalls) and the comm
// transports (send, recv, retransmit). It is the measured counterpart of the
// discrete-event simulator: internal/sim predicts where time should go,
// this package records where it actually went, and the compare tooling
// (internal/bench, cmd/weipipe-trace -compare) reports the per-phase delta.
//
// Design constraints, in priority order:
//
//   - Tracing off must be free. Every instrumentation site holds a *Tracer
//     that is nil unless the run enabled tracing; all methods are nil-safe
//     no-ops, so the disabled hot path pays one pointer test.
//   - Tracing on must not allocate on the hot path. Events are fixed-size
//     structs written into a preallocated ring; emitting is a mutex acquire,
//     a slot store and a counter bump. When the ring wraps, the oldest
//     events are overwritten and counted as dropped — a tracer never grows
//     and never stalls the training loop.
//   - Timestamps are monotonic. Start offsets come from time.Since against
//     the Set's epoch, which Go reads from the monotonic clock, so spans
//     are immune to wall-clock steps and comparable across the ranks of one
//     in-process run (they share the epoch).
package trace

import (
	"sort"
	"sync"
	"time"
)

// Code identifies what a span measured. The code implies the category
// (compute, belt, comm, …) and how the A/B arguments are interpreted.
type Code uint8

// Span codes emitted by the instrumentation sites.
const (
	// CodeStep spans one whole TrainIteration. A = iteration index.
	CodeStep Code = iota
	// CodeF/CodeB/CodeW span one compute stage: forward, activation-
	// gradient (B) and weight-gradient (W) passes. A = microbatch,
	// B = chunk/stage index.
	CodeF
	CodeB
	CodeW
	// CodeOpt spans the optimizer step phase: gradient scaling, the
	// reductions that belong to the step (data-parallel all-reduce, FSDP
	// reduce-scatter, the scalar norm all-reduce), clipping, the update and
	// its guards. No CodeStall nests inside it: WeiPipe opens it only after
	// the retired gradient has arrived, and that wait is a CodeStall span of
	// its own. A = iteration index.
	CodeOpt
	// CodeCkpt spans a coordinated checkpoint capture. A = completed
	// iterations at the barrier.
	CodeCkpt
	// CodeStall spans the compute thread's exposed wait for a payload it
	// cannot progress without (belt chunk, boundary activation, staged
	// engine buffer). A = comm.Kind, B = source rank. This is the
	// measured analogue of the simulator's bubble.
	CodeStall
	// CodePrefetch spans a belt-engine lane's blocking transport receive —
	// off the critical path by design. A = belt id, B = use index.
	CodePrefetch
	// CodeRelay spans the engine's store-and-forward send of a weight
	// chunk to the ring successor. A = belt id, B = next use index.
	CodeRelay
	// CodeSend spans a transport send enqueue. A = comm.Kind, B = dst rank.
	CodeSend
	// CodeRecv spans a blocking transport receive (any goroutine — the
	// compute thread in blocking mode, an engine lane in overlap mode).
	// A = comm.Kind, B = src rank.
	CodeRecv
	// CodeIntegrity marks a detected integrity failure (instant event):
	// a belt chunk, resident buffer or kernel result whose checksum no
	// longer matched. A = comm.Kind (or -1 for kernel/resident checks),
	// B = chunk index (-1 when not chunked).
	CodeIntegrity
	// CodeRepair marks a recovery/repair restore point (instant event):
	// the trainer's state was rebuilt from a snapshot or checkpoint.
	// A = resumed iteration, B = optimizer step.
	CodeRepair
	// CodeSpike marks a grad-norm spike verdict from the windowed
	// median+MAD detector (instant event). A = iteration, B = 1 when the
	// step was skipped, 0 when only counted.
	CodeSpike
	// CodeRetransmit marks a TCP retransmission burst (instant event).
	// A = peer rank, B = frames re-sent.
	CodeRetransmit
	// CodeModeSwitch marks the auto P2P controller re-deciding a link's
	// wire packaging mode (instant event). A = peer rank, B = the new
	// comm.P2PMode value.
	CodeModeSwitch

	codeCount
)

// codeInfo names a code for the trace export: the Perfetto slice name, the
// category string, and the names of the A/B args.
var codeInfo = [codeCount]struct {
	name, cat, aName, bName string
}{
	CodeStep:       {"step", "step", "iter", ""},
	CodeF:          {"F", "compute", "mb", "chunk"},
	CodeB:          {"B", "compute", "mb", "chunk"},
	CodeW:          {"W", "compute", "mb", "chunk"},
	CodeOpt:        {"opt", "compute", "iter", ""},
	CodeCkpt:       {"ckpt", "ckpt", "iters", ""},
	CodeStall:      {"stall", "stall", "kind", "src"},
	CodePrefetch:   {"prefetch", "belt", "belt", "use"},
	CodeRelay:      {"relay", "belt", "belt", "use"},
	CodeSend:       {"send", "comm", "kind", "dst"},
	CodeRecv:       {"recv", "comm", "kind", "src"},
	CodeIntegrity:  {"integrity", "integrity", "kind", "chunk"},
	CodeRepair:     {"repair", "integrity", "iter", "step"},
	CodeSpike:      {"spike", "integrity", "iter", "skipped"},
	CodeRetransmit: {"retransmit", "comm", "peer", "frames"},
	CodeModeSwitch: {"p2p-mode", "comm", "peer", "mode"},
}

// String returns the code's slice name.
func (c Code) String() string {
	if int(c) < len(codeInfo) {
		return codeInfo[c].name
	}
	return "?"
}

// Category returns the code's category string ("compute", "belt", "comm",
// "stall", "step", "ckpt").
func (c Code) Category() string {
	if int(c) < len(codeInfo) {
		return codeInfo[c].cat
	}
	return "?"
}

// Event is one recorded span. Events are fixed-size so the ring buffer
// holds them inline with no per-event allocation.
type Event struct {
	// Start is nanoseconds since the owning Set's epoch (monotonic).
	Start int64
	// Dur is the span duration in nanoseconds (0 for instant events).
	Dur int64
	// Code identifies what was measured; A and B are code-specific args.
	Code Code
	// Rank is the emitting rank.
	Rank int32
	A, B int64
}

// DefaultCapacity is the per-rank ring size NewSet uses when given a
// non-positive capacity: 64Ki events ≈ 2.6 MB per rank, several thousand
// training iterations of a small run.
const DefaultCapacity = 1 << 16

// Tracer is one rank's event sink. The zero of usefulness is nil: every
// method on a nil Tracer is a no-op, which is how instrumentation sites
// stay free when tracing is off.
type Tracer struct {
	mu    sync.Mutex
	rank  int32
	epoch time.Time
	buf   []Event
	pos   uint64 // total events emitted; slot = pos % len(buf)
}

// Begin returns the current monotonic offset for a span about to start,
// or 0 on a nil tracer (End will then be a no-op too).
func (t *Tracer) Begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// End emits a span that started at the Begin-returned offset.
func (t *Tracer) End(start int64, code Code, a, b int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.Emit(start, now-start, code, a, b)
}

// Instant emits a zero-duration event stamped now.
func (t *Tracer) Instant(code Code, a, b int64) {
	if t == nil {
		return
	}
	t.Emit(int64(time.Since(t.epoch)), 0, code, a, b)
}

// Emit records a fully-specified event. It is the primitive Begin/End and
// Instant build on; tests use it directly to construct deterministic
// traces. Emitting into a full ring overwrites the oldest event.
func (t *Tracer) Emit(start, dur int64, code Code, a, b int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.pos%uint64(len(t.buf))] = Event{
		Start: start, Dur: dur, Code: code, Rank: t.rank, A: a, B: b,
	}
	t.pos++
	t.mu.Unlock()
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pos <= uint64(len(t.buf)) {
		return 0
	}
	return t.pos - uint64(len(t.buf))
}

// Events returns a copy of the retained events in emission order (oldest
// first). Nil tracers return nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if t.pos <= n {
		out := make([]Event, t.pos)
		copy(out, t.buf[:t.pos])
		return out
	}
	out := make([]Event, 0, n)
	head := t.pos % n
	out = append(out, t.buf[head:]...)
	out = append(out, t.buf[:head]...)
	return out
}

// Set owns one Tracer per rank, all sharing a single monotonic epoch so
// cross-rank timelines align. A nil *Set hands out nil tracers, making
// "tracing off" a single nil literal at the top of a run.
type Set struct {
	epoch   time.Time
	tracers []*Tracer
}

// NewSet creates per-rank tracers with the given ring capacity (events per
// rank; <= 0 selects DefaultCapacity).
func NewSet(ranks, capacity int) *Set {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Set{epoch: time.Now(), tracers: make([]*Tracer, ranks)}
	for r := range s.tracers {
		s.tracers[r] = &Tracer{
			rank:  int32(r),
			epoch: s.epoch,
			buf:   make([]Event, capacity),
		}
	}
	return s
}

// Rank returns rank r's tracer, or nil when the set is nil or r is out of
// range — so instrumentation can unconditionally call set.Rank(r).
func (s *Set) Rank(r int) *Tracer {
	if s == nil || r < 0 || r >= len(s.tracers) {
		return nil
	}
	return s.tracers[r]
}

// Size returns the number of ranks (0 for a nil set).
func (s *Set) Size() int {
	if s == nil {
		return 0
	}
	return len(s.tracers)
}

// Dropped sums the per-rank overwrite counts.
func (s *Set) Dropped() uint64 {
	if s == nil {
		return 0
	}
	var n uint64
	for _, t := range s.tracers {
		n += t.Dropped()
	}
	return n
}

// Events merges every rank's retained events, sorted by start time (ties
// broken by rank, then code) — the snapshot the exporters and the metrics
// rollup consume.
func (s *Set) Events() []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, t := range s.tracers {
		out = append(out, t.Events()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Code < out[j].Code
	})
	return out
}
