package comm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"weipipe/internal/tensor"
)

// TCP wire framing. Every frame is:
//
//	src u32 | kind u32 | epoch u32 | a i64 | b i64 | seq u64 | n u64 | crc u32 | payload n elems
//
// all little-endian. The kind field carries the application Kind in its low
// byte and the payload codec in its second byte (bits 8–15): CodecF32
// payloads are n×4 bytes of float32, CodecBF16 payloads are n×2 bytes of
// bfloat16 — the belt's half-width wire format. epoch is the cluster
// incarnation the sender belongs to: after an elastic repair the survivors
// rebuild the mesh under a bumped epoch, and a receiver drops (without
// acknowledging, and without refreshing liveness) any frame from a stale
// epoch — the split-brain fence that keeps a zombie segment of a
// partitioned ring from ever feeding frames into the repaired one. seq is
// the per-link data sequence number (1-based; 0 marks unsequenced control
// frames), used for redelivery dedup and reordering. crc is CRC32 (IEEE)
// over the header bytes before the crc field and the payload, so both a
// corrupted length field and a corrupted payload are detected. Control
// frames reuse the same layout with kind values outside the application
// Kind space: acks carry the cumulative acknowledged sequence in a,
// heartbeats are empty.
const (
	frameHeaderLen = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4
	frameCRCOffset = frameHeaderLen - 4

	// Control frame kinds, disjoint from the application Kind space.
	ctlAck       uint32 = 0xFFFFFFF0
	ctlHeartbeat uint32 = 0xFFFFFFF1
	// ctlBurst is a burst envelope (the batched P2P mode): its payload is
	// a back-to-back run of complete inner frames, each carrying its own
	// header and CRC. For a burst header, a counts the inner frames and n
	// counts payload BYTES (not elements). The envelope CRC covers the
	// header only — see burst.go.
	ctlBurst uint32 = 0xFFFFFFF2

	// maxAppKind is the largest application Kind a frame may carry.
	maxAppKind = uint32(kindCount) - 1

	// codecShift positions the codec byte inside the kind field.
	codecShift = 8

	// defaultMaxFrameElems bounds the payload element count a decoder will
	// allocate for (1 GiB of float32s); DialTCPOpts can lower it.
	defaultMaxFrameElems = 1 << 28
)

// frameHeader is the decoded fixed-size frame prefix.
type frameHeader struct {
	src   int
	kind  uint32 // raw kind field; low byte is the app Kind for data frames
	epoch uint32 // cluster incarnation of the sender
	codec WireCodec
	a, b  int64
	seq   uint64
	n     int
	crc   uint32
}

// tag returns the application tag of a data frame.
func (h frameHeader) tag() Tag {
	return Tag{Kind: Kind(h.kind & 0xff), A: int(h.a), B: int(h.b)}
}

// isCtl reports whether the frame is a control (ack/heartbeat/burst) frame.
func (h frameHeader) isCtl() bool {
	return h.kind == ctlAck || h.kind == ctlHeartbeat || h.kind == ctlBurst
}

// parseFrameHeader validates and decodes a frame header. size bounds the
// src field (size <= 0 skips the check, for fuzzing); maxElems bounds the
// payload element count (<= 0 selects the default). All failures return a
// *CorruptionError — the decoder never panics and never allocates based on
// an unvalidated length.
func parseFrameHeader(hdr []byte, size, maxElems int) (frameHeader, error) {
	if len(hdr) != frameHeaderLen {
		return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("header length %d != %d", len(hdr), frameHeaderLen)}
	}
	if maxElems <= 0 {
		maxElems = defaultMaxFrameElems
	}
	h := frameHeader{
		src:   int(int32(binary.LittleEndian.Uint32(hdr[0:4]))),
		kind:  binary.LittleEndian.Uint32(hdr[4:8]),
		epoch: binary.LittleEndian.Uint32(hdr[8:12]),
		a:     int64(binary.LittleEndian.Uint64(hdr[12:20])),
		b:     int64(binary.LittleEndian.Uint64(hdr[20:28])),
		seq:   binary.LittleEndian.Uint64(hdr[28:36]),
		crc:   binary.LittleEndian.Uint32(hdr[frameCRCOffset:frameHeaderLen]),
	}
	n := binary.LittleEndian.Uint64(hdr[36:44])
	if h.src < 0 || (size > 0 && h.src >= size) {
		return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("source rank %d out of range", h.src)}
	}
	if !h.isCtl() {
		if h.kind>>(2*codecShift) != 0 || h.kind&0xff > maxAppKind {
			return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("unknown frame kind %#x", h.kind)}
		}
		codec := WireCodec(h.kind >> codecShift)
		if codec >= codecCount {
			return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("unknown payload codec %d", codec)}
		}
		h.codec = codec
	}
	if h.kind == ctlBurst {
		// Burst envelopes size their payload in bytes, bounded by the
		// largest legal burst rather than the per-frame element cap.
		if h.seq != 0 || h.a < 0 || h.a > maxBurstFrames || n > burstByteCap(maxElems) {
			return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("implausible burst envelope (count %d, %d bytes)", h.a, n)}
		}
		h.n = int(n)
		return h, nil
	}
	if n > uint64(maxElems) {
		return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("implausible payload length %d elems", n)}
	}
	h.n = int(n)
	return h, nil
}

// kindField builds a data frame's kind field from the app Kind and codec.
func kindField(kind Kind, codec WireCodec) uint32 {
	return uint32(kind) | uint32(codec)<<codecShift
}

// hostLittleEndian reports whether float32 memory already is the wire's
// little-endian f32 encoding. When it is, f32 payloads go on (and come off)
// the wire as byte views of their pooled buffers; otherwise they are
// converted element by element through a pooled staging buffer.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views a float32 slice as its in-memory bytes (no copy).
func f32Bytes(p []float32) []byte {
	if len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 4*len(p))
}

// putFrameHeader writes a frame header into hdr (frameHeaderLen bytes),
// sealing it with the CRC over the header prefix and the encoded payload
// body. n is the payload's element count.
func putFrameHeader(hdr []byte, src int, kind, epoch uint32, a, b int64, seq uint64, n int, body []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(hdr[4:8], kind)
	binary.LittleEndian.PutUint32(hdr[8:12], epoch)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(a))
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(b))
	binary.LittleEndian.PutUint64(hdr[28:36], seq)
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(n))
	binary.LittleEndian.PutUint32(hdr[frameCRCOffset:frameHeaderLen], frameCRC(hdr, body))
}

// putCtlHeader writes a control frame (ack/heartbeat) into hdr; control
// frames have no payload and carry no codec.
func putCtlHeader(hdr []byte, src int, kind, epoch uint32, a int64) {
	putFrameHeader(hdr, src, kind, epoch, a, 0, 0, 0, nil)
}

// frameCRC computes a frame's checksum: the header bytes before the CRC
// field plus the encoded payload bytes.
func frameCRC(hdr, body []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[:frameCRCOffset]), crc32.IEEETable, body)
}

// encodeBody returns payload's wire bytes under codec. An f32 payload on a
// little-endian host is its own wire image: body is a view of payload and
// scratch is nil. Otherwise the payload is encoded into scratch, a pooled
// buffer the caller owns (and Releases) for as long as it uses body.
func encodeBody(codec WireCodec, payload []float32) (body []byte, scratch []float32) {
	if codec == CodecF32 && hostLittleEndian {
		return f32Bytes(payload), nil
	}
	return encodeBodyPortable(codec, payload)
}

// encodeBodyPortable is encodeBody's byte-order-independent path: it
// encodes into a pooled staging buffer on any host.
func encodeBodyPortable(codec WireCodec, payload []float32) (body []byte, scratch []float32) {
	nb := len(payload) * codec.bytesPerElem()
	if nb == 0 {
		return nil, nil
	}
	scratch = GetBuf((nb + 3) / 4)
	body = f32Bytes(scratch)[:nb]
	if codec == CodecBF16 {
		tensor.PackBF16LE(body, payload)
	} else {
		for i, v := range payload {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(v))
		}
	}
	return body, scratch
}

// decodeBody expands a verified payload body into dst (len(dst) elements
// at the codec's width).
func decodeBody(codec WireCodec, dst []float32, body []byte) {
	if codec == CodecF32 && hostLittleEndian {
		copy(f32Bytes(dst), body)
		return
	}
	decodeBodyPortable(codec, dst, body)
}

// decodeBodyPortable is decodeBody's byte-order-independent path.
func decodeBodyPortable(codec WireCodec, dst []float32, body []byte) {
	if codec == CodecBF16 {
		tensor.UnpackBF16LE(dst, body)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
}
