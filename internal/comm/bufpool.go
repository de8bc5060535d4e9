package comm

import (
	"math/bits"
	"sync"
)

// Payload buffer recycling. Every Send copies its payload at the boundary
// (isolation between ranks), which in a training iteration means thousands of
// multi-kilobyte allocations for weight, gradient and activation payloads.
// The pool recycles those buffers through size-classed sync.Pools: Send draws
// its copy from the pool, and receivers hand exhausted payloads back with
// Release once they have folded them into local state.
//
// Classes grow by powers of two from bufMinLen elements; a buffer is filed
// under the largest class not exceeding its capacity, so anything fetched
// from class c is guaranteed to hold bufMinLen<<c elements.
//
// In front of each class's sync.Pool sits a small stash that the garbage
// collector does not empty. A sync.Pool drops its contents across two
// collections (and, under the race detector, a quarter of its Puts on
// purpose), after which every multi-megabyte belt buffer cycling through it
// is allocated and zero-filled again. The stash keeps the hot working set
// instead: it holds only buffers released while it has room and hands them
// out first, so a class's stashed plus live buffers never exceed the most
// that class ever had live at once.

const (
	bufMinLen     = 64
	bufNumClasses = 22 // largest class: 64<<21 ≈ 134M floats (536 MB)
)

var bufPools [bufNumClasses]sync.Pool

// stashDepth is the number of buffers each class's stash keeps.
const stashDepth = 8

// bufStash is one class's GC-proof free list.
type bufStash struct {
	mu   sync.Mutex
	n    int
	bufs [stashDepth][]float32
}

var bufStashes [bufNumClasses]bufStash

func (s *bufStash) pop() []float32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	s.n--
	b := s.bufs[s.n]
	s.bufs[s.n] = nil
	return b
}

func (s *bufStash) push(b []float32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == stashDepth {
		return false
	}
	s.bufs[s.n] = b
	s.n++
	return true
}

// hdrPool recycles the *[]float32 headers that carry buffers in and out of
// the size-classed pools. Without it every Release heap-allocates the header
// it hands to sync.Pool.Put, which would put one allocation on the belt
// engine's per-chunk hot path (see TestBeltHotPathZeroAlloc).
var hdrPool = sync.Pool{New: func() any { return new([]float32) }}

// bufClassCeil returns the smallest class whose guaranteed capacity holds n
// elements, or bufNumClasses if n exceeds every class.
func bufClassCeil(n int) int {
	if n <= bufMinLen {
		return 0
	}
	return bits.Len(uint(n-1) >> 6)
}

// bufClassFloor returns the largest class whose guaranteed capacity is at
// most c elements, or -1 if c is below the smallest class.
func bufClassFloor(c int) int {
	if c < bufMinLen {
		return -1
	}
	f := bits.Len(uint(c)>>6) - 1
	if f >= bufNumClasses {
		f = bufNumClasses - 1
	}
	return f
}

// GetBuf returns a length-n buffer with arbitrary contents, recycled from the
// pool when one is available. The caller owns it until it is passed to
// Release (or retained forever). Callers must overwrite all n elements.
func GetBuf(n int) []float32 {
	if n == 0 {
		return nil
	}
	if c := bufClassCeil(n); c < bufNumClasses {
		if b := bufStashes[c].pop(); b != nil {
			return b[:n]
		}
		if v := bufPools[c].Get(); v != nil {
			h := v.(*[]float32)
			buf := (*h)[:n]
			*h = nil
			hdrPool.Put(h)
			return buf
		}
		return make([]float32, n, bufMinLen<<c)
	}
	return make([]float32, n)
}

// Release hands a payload buffer back to the transport pool for reuse by a
// later Send. The caller must own buf exclusively and must not touch it
// afterwards. Payloads that were retained — wrapped in a tensor that outlives
// the call, or returned to other code — must never be released. Releasing
// foreign buffers is safe but pointless; nil and tiny buffers are dropped.
func Release(buf []float32) {
	c := bufClassFloor(cap(buf))
	if c < 0 || bufStashes[c].push(buf[:cap(buf)]) {
		return
	}
	h := hdrPool.Get().(*[]float32)
	*h = buf[:cap(buf)]
	bufPools[c].Put(h)
}
