package comm

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Burst envelopes — the batched P2P mode's wire unit.
//
// A burst is a control frame (kind ctlBurst) whose payload is a
// back-to-back run of complete inner frames, each retaining its own
// header, sequence number, and CRC:
//
//	envelope header (a = inner count, n = payload BYTES, CRC over the
//	header only) | inner frame | inner frame | ...
//
// The envelope CRC deliberately excludes the payload: every inner frame
// already seals itself, so re-checksumming the concatenation would turn
// one flipped bit anywhere in the burst into the loss of every frame in
// it. With header-only sealing, a corrupt byte inside one inner frame
// fails only that frame's CRC — its siblings decode and deliver, the
// damaged frame stays unacknowledged, and the sender retransmits just it.
// Corruption that lands in an inner *header* (so the decoder can no
// longer find the next frame boundary) ends decoding of the rest of the
// burst; the envelope's byte count still bounds the read, so the outer
// stream stays frame-aligned and the usual retransmission path repairs
// the tail.
//
// Receivers are permanently burst-capable regardless of their own
// configured mode: the mode is a sender-local packaging decision, which
// is what makes mid-run mode switches trivially safe.
const (
	// maxBurstFrames bounds the inner frames per envelope; the send
	// window (32) never exceeds it, so one drain is at most one full
	// envelope plus change.
	maxBurstFrames = 64
)

// burstByteCap bounds a plausible envelope payload: one maximal data
// frame's payload plus headers for a full envelope of frames. Any single
// legal frame fits (so oversized payloads travel as a burst of one), and
// a corrupt length field cannot make the decoder allocate more than the
// transport's existing per-frame cap already allows.
func burstByteCap(maxElems int) uint64 {
	if maxElems <= 0 {
		maxElems = defaultMaxFrameElems
	}
	return uint64(maxElems)*4 + maxBurstFrames*frameHeaderLen
}

// putBurstHeader writes the envelope header for a burst of count inner
// frames totalling payloadBytes of encoded wire into hdr. The CRC covers
// the header only (see the package comment above).
func putBurstHeader(hdr []byte, src int, epoch uint32, count int, payloadBytes int) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(hdr[4:8], ctlBurst)
	binary.LittleEndian.PutUint32(hdr[8:12], epoch)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(count))
	binary.LittleEndian.PutUint64(hdr[20:28], 0)
	binary.LittleEndian.PutUint64(hdr[28:36], 0)
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(payloadBytes))
	binary.LittleEndian.PutUint32(hdr[frameCRCOffset:frameHeaderLen], frameCRC(hdr, nil))
}

// splitBursts groups wire frames of the given encoded sizes into
// envelope-sized runs respecting maxBurstFrames and the receiver's byte
// cap, appending each run's frame count to runs. A frame larger than the
// cap on its own (impossible for legal frames, but the bound is defensive)
// travels as a run of one.
func splitBursts(maxElems int, sizes []int, runs []int) []int {
	cap64 := burstByteCap(maxElems)
	cur := 0
	var curBytes uint64
	for _, n := range sizes {
		if cur > 0 && (cur >= maxBurstFrames || curBytes+uint64(n) > cap64) {
			runs = append(runs, cur)
			cur, curBytes = 0, 0
		}
		cur++
		curBytes += uint64(n)
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// flattenBurst builds one contiguous wire image of an envelope — header
// plus inner frames — for the chaos injector's per-write path, which
// flips bytes in a private copy and may hold a write back for reordering.
func flattenBurst(src int, epoch uint32, wires [][]byte) []byte {
	total := 0
	for _, w := range wires {
		total += len(w)
	}
	out := make([]byte, frameHeaderLen, frameHeaderLen+total)
	putBurstHeader(out, src, epoch, len(wires), total)
	for _, w := range wires {
		out = append(out, w...)
	}
	return out
}

// burstFrame is one decoded inner frame of a burst — either a payload or
// the *CorruptionError that frame (or the envelope's tail) produced.
type burstFrame struct {
	h       frameHeader
	payload []float32
	err     error
}

// decodeBurst splits an envelope's payload into its inner frames, reusing
// out's backing array for the result. Intact frames come back decoded (payloads drawn
// from the pool; the caller owns them). An inner frame whose payload fails
// its CRC becomes a *CorruptionError entry — its siblings are unaffected.
// A malformed structure — truncated inner frame, implausible inner header,
// nested envelope, or a frame-count mismatch against the envelope header —
// ends decoding with one final terminal *CorruptionError entry; frames
// decoded before the damage still deliver. The envelope's byte count was
// read in full before decoding, so every outcome leaves the outer stream
// aligned.
func decodeBurst(buf []byte, count, size, maxElems int, out []burstFrame) []burstFrame {
	out = out[:0]
	terminal := func(reason string) []burstFrame {
		return append(out, burstFrame{err: &CorruptionError{Reason: "burst: " + reason}})
	}
	off := 0
	for off < len(buf) {
		if len(out) >= count {
			return terminal(fmt.Sprintf("more than %d inner frames", count))
		}
		if off+frameHeaderLen > len(buf) {
			return terminal("truncated inner frame header")
		}
		hdr := buf[off : off+frameHeaderLen]
		h, err := parseFrameHeader(hdr, size, maxElems)
		if err != nil {
			return terminal(fmt.Sprintf("implausible inner header: %v", err))
		}
		if h.kind == ctlBurst {
			return terminal("nested burst envelope")
		}
		pb := h.n * h.codec.bytesPerElem()
		if off+frameHeaderLen+pb > len(buf) {
			return terminal("truncated inner payload")
		}
		body := buf[off+frameHeaderLen : off+frameHeaderLen+pb]
		if got := frameCRC(hdr, body); got != h.crc {
			// One damaged frame; the header was plausible so the next
			// boundary is still known. Skip it, keep its siblings.
			out = append(out, burstFrame{err: &CorruptionError{Reason: fmt.Sprintf("inner payload CRC mismatch (got %#x want %#x)", got, h.crc)}})
			off += frameHeaderLen + pb
			continue
		}
		payload := GetBuf(h.n)
		decodeBody(h.codec, payload, body)
		out = append(out, burstFrame{h: h, payload: payload})
		off += frameHeaderLen + pb
	}
	if len(out) != count {
		return terminal(fmt.Sprintf("inner frame count %d != envelope's %d", len(out), count))
	}
	return out
}

// frameReader decodes a connection's wire stream one frame at a time,
// transparently unpacking burst envelopes: a burst's inner frames are
// queued and handed out on subsequent calls before the socket is read
// again. This is what makes every receiver mode-agnostic — plain frames
// and bursts interleave freely on the same connection.
//
// A plain f32 frame is read straight into its pooled delivery buffer
// (on a little-endian host) and verified there, so its payload bytes are
// copied once, by the kernel. bf16 payloads and burst envelopes go through
// stage, one pooled buffer reused across frames, and are decoded out of it.
type frameReader struct {
	r        io.Reader
	size     int
	maxElems int

	hdr   [frameHeaderLen]byte
	stage []float32    // pooled staging buffer (bytes view); grows, never shrinks
	queue []burstFrame // decoded inner frames of the current burst
	head  int          // next queue entry to hand out
}

// next returns the next frame. synced == true with a *CorruptionError
// means one frame was lost (its payload failed its CRC and was never
// delivered) but the stream (and the reader's queue) remain aligned, so
// the caller may keep reading; any other error requires connection
// teardown. The returned payload is pooled; the caller owns it.
func (fr *frameReader) next() (h frameHeader, payload []float32, synced bool, err error) {
	for {
		if fr.head < len(fr.queue) {
			bf := fr.queue[fr.head]
			fr.queue[fr.head] = burstFrame{}
			fr.head++
			if bf.err != nil {
				return frameHeader{}, nil, true, bf.err
			}
			return bf.h, bf.payload, true, nil
		}
		hdr := fr.hdr[:]
		if _, err := io.ReadFull(fr.r, hdr); err != nil {
			return frameHeader{}, nil, false, err
		}
		h, err := parseFrameHeader(hdr, fr.size, fr.maxElems)
		if err != nil {
			return frameHeader{}, nil, false, err
		}
		if h.kind != ctlBurst {
			return fr.readPayload(h)
		}
		// Burst envelope. The header seals itself; a mismatch means the
		// byte count cannot be trusted, so alignment is lost.
		if got := frameCRC(hdr, nil); got != h.crc {
			return frameHeader{}, nil, false, &CorruptionError{Reason: fmt.Sprintf("burst envelope CRC mismatch (got %#x want %#x)", got, h.crc)}
		}
		buf := fr.staging(h.n)
		if _, err := io.ReadFull(fr.r, buf); err != nil {
			return frameHeader{}, nil, false, err
		}
		fr.queue = decodeBurst(buf, int(h.a), fr.size, fr.maxElems, fr.queue)
		fr.head = 0
	}
}

// readPayload reads and verifies the payload of the plain frame whose
// header fr.hdr holds.
func (fr *frameReader) readPayload(h frameHeader) (frameHeader, []float32, bool, error) {
	nb := h.n * h.codec.bytesPerElem()
	var payload []float32
	var body []byte
	direct := h.codec == CodecF32 && hostLittleEndian
	if direct {
		payload = GetBuf(h.n)
		body = f32Bytes(payload)
	} else {
		body = fr.staging(nb)
	}
	if _, err := io.ReadFull(fr.r, body); err != nil {
		Release(payload)
		return frameHeader{}, nil, false, err
	}
	if got := frameCRC(fr.hdr[:], body); got != h.crc {
		// The length field was covered by the header checks and the payload
		// was fully consumed: the stream is still frame-aligned.
		Release(payload)
		return frameHeader{}, nil, true, &CorruptionError{Reason: fmt.Sprintf("payload CRC mismatch (got %#x want %#x)", got, h.crc)}
	}
	if !direct {
		payload = GetBuf(h.n)
		decodeBody(h.codec, payload, body)
	}
	return h, payload, true, nil
}

// staging returns an nb-byte view of the reader's reusable staging buffer,
// growing it (from the pool) when a larger frame arrives.
func (fr *frameReader) staging(nb int) []byte {
	if 4*cap(fr.stage) < nb {
		Release(fr.stage)
		fr.stage = GetBuf((nb + 3) / 4)
	}
	return f32Bytes(fr.stage[:cap(fr.stage)])[:nb]
}

// drop releases any queued inner frames and the staging buffer
// (connection teardown, possibly mid-burst).
func (fr *frameReader) drop() {
	for _, bf := range fr.queue[fr.head:] {
		Release(bf.payload)
	}
	fr.queue, fr.head = nil, 0
	Release(fr.stage)
	fr.stage = nil
}
