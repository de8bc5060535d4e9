package comm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"net"
	"testing"

	"weipipe/internal/tensor"
)

// Reference encoders: the frame layout written element by element into one
// fresh image, exactly as the transport originally put it on the wire. They
// are the oracle the zero-copy writer is held to byte for byte, and the
// tests' way to build wire images by hand.

// encodeFrame builds a complete wire frame (header + CRC + payload),
// encoding the payload at the codec's width.
func encodeFrame(src int, kind, epoch uint32, a, b int64, seq uint64, codec WireCodec, payload []float32) []byte {
	frame := make([]byte, frameHeaderLen+len(payload)*codec.bytesPerElem())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(src))
	binary.LittleEndian.PutUint32(frame[4:8], kind)
	binary.LittleEndian.PutUint32(frame[8:12], epoch)
	binary.LittleEndian.PutUint64(frame[12:20], uint64(a))
	binary.LittleEndian.PutUint64(frame[20:28], uint64(b))
	binary.LittleEndian.PutUint64(frame[28:36], seq)
	binary.LittleEndian.PutUint64(frame[36:44], uint64(len(payload)))
	if codec == CodecBF16 {
		tensor.PackBF16LE(frame[frameHeaderLen:], payload)
	} else {
		for i, v := range payload {
			binary.LittleEndian.PutUint32(frame[frameHeaderLen+i*4:], math.Float32bits(v))
		}
	}
	binary.LittleEndian.PutUint32(frame[frameCRCOffset:frameHeaderLen], imageCRC(frame))
	return frame
}

// encodeCtlFrame builds a control frame (ack/heartbeat).
func encodeCtlFrame(src int, kind, epoch uint32, a int64) []byte {
	return encodeFrame(src, kind, epoch, a, 0, 0, CodecF32, nil)
}

// encodeBurstHeader builds a burst envelope header (CRC over the header
// only).
func encodeBurstHeader(src int, epoch uint32, count int, payloadBytes int) []byte {
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(hdr[4:8], ctlBurst)
	binary.LittleEndian.PutUint32(hdr[8:12], epoch)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(count))
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(payloadBytes))
	binary.LittleEndian.PutUint32(hdr[frameCRCOffset:frameHeaderLen], imageCRC(hdr))
	return hdr
}

// imageCRC checksums a contiguous frame image: the header bytes before the
// CRC field plus the payload bytes.
func imageCRC(frame []byte) uint32 {
	crc := crc32.NewIEEE()
	crc.Write(frame[:frameCRCOffset])
	crc.Write(frame[frameHeaderLen:])
	return crc.Sum32()
}

// captureConn records everything written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// goldenPayload covers the bit patterns a byte-view writer could mangle:
// signed zeros, quiet/signalling/negative NaNs with payload bits, ±Inf,
// the smallest and largest denormals, and the extremes of the normal
// range.
func goldenPayload() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7fc00000, 0x7f800001, 0xffc12345, 0x7fbfffff, // NaNs
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, 0x00400000, // denormals
		0x7f7fffff, 0x00800000, 0x3f800000, 0xbfc00000, 0x3eaaaaab,
	}
	out := make([]float32, 0, 3*len(bits))
	for r := 0; r < 3; r++ { // odd length, body not a multiple of 8 bytes
		for _, b := range bits {
			out = append(out, math.Float32frombits(b+uint32(r)&1))
		}
	}
	return out[:len(out)-1]
}

// goldenLink is a bare link that writeFlush can drive without a mesh.
func goldenLink(rank int, chaos *ChaosConfig) *tcpLink {
	t := &TCPTransport{rank: rank, size: 4, opts: TCPOptions{Chaos: chaos}.withDefaults(), stats: newStats()}
	return &tcpLink{t: t, peer: 2}
}

// The zero-copy writer must put exactly the reference encoder's bytes on
// the wire — f32 and bf16, plain frames and burst envelopes, with and
// without the chaos injector's per-write path — and the reader must hand
// back the very bits that went in.
func TestWireFormatGolden(t *testing.T) {
	const src, epoch = 1, 7
	payload := goldenPayload()
	type spec struct {
		seq   uint64
		tag   Tag
		codec WireCodec
		data  []float32
	}
	specs := []spec{
		{3, Tag{Kind: KindWeight, A: 5, B: -2}, CodecF32, payload},
		{4, Tag{Kind: KindGrad, A: 1 << 33, B: 9}, CodecBF16, payload},
		{5, Tag{Kind: KindCtl, A: -1}, CodecF32, nil},
		{6, Tag{Kind: KindAct, A: 2}, CodecF32, payload[:1]},
	}
	var wires [][]byte
	for _, s := range specs {
		wires = append(wires, encodeFrame(src, kindField(s.tag.Kind, s.codec), epoch,
			int64(s.tag.A), int64(s.tag.B), s.seq, s.codec, s.data))
	}
	ack := encodeCtlFrame(src, ctlAck, epoch, 41)

	for _, mode := range []P2PMode{P2PFrame, P2PBatched} {
		for _, chaos := range []*ChaosConfig{nil, {}} {
			l := goldenLink(src, chaos)
			frames := make([]*outFrame, len(specs))
			for i, s := range specs {
				buf := GetBuf(len(s.data))
				copy(buf, s.data)
				frames[i] = &outFrame{seq: s.seq, tag: s.tag, codec: s.codec, payload: buf}
				frames[i].encode(src, epoch)
			}
			var ctl ctlImages
			l.rexpect, l.ackDirty = 42, true
			ctlVec := l.ctlFramesLocked(&ctl, epoch, nil)
			conn := &captureConn{}
			if err := l.writeFlush(conn, mode, epoch, ctlVec, frames); err != nil {
				t.Fatal(err)
			}
			var want []byte
			switch {
			case mode == P2PFrame:
				want = append(want, ack...)
				for _, w := range wires {
					want = append(want, w...)
				}
			case chaos != nil:
				// The chaos path writes ctl frames plain and bursts data only.
				total := 0
				for _, w := range wires {
					total += len(w)
				}
				want = append(append(want, ack...), encodeBurstHeader(src, epoch, len(wires), total)...)
				for _, w := range wires {
					want = append(want, w...)
				}
			default:
				total := len(ack)
				for _, w := range wires {
					total += len(w)
				}
				want = append(append(want, encodeBurstHeader(src, epoch, 1+len(wires), total)...), ack...)
				for _, w := range wires {
					want = append(want, w...)
				}
			}
			if !bytes.Equal(conn.buf.Bytes(), want) {
				t.Fatalf("mode %v chaos %v: writer bytes differ from the reference encoding (%d vs %d bytes)",
					mode, chaos != nil, conn.buf.Len(), len(want))
			}
			for _, f := range frames {
				f.release()
			}

			// Decode: same bits back (bf16 as the codec rounds them).
			fr := &frameReader{r: bytes.NewReader(want), size: 4}
			if h, p, _, err := fr.next(); err != nil || h.kind != ctlAck || h.a != 41 || len(p) != 0 {
				t.Fatalf("ack frame: %+v %v", h, err)
			}
			for _, s := range specs {
				h, got, _, err := fr.next()
				if err != nil || h.seq != s.seq || h.tag() != s.tag || h.codec != s.codec || len(got) != len(s.data) {
					t.Fatalf("frame %d: %+v (%d elems) %v", s.seq, h, len(got), err)
				}
				for i, v := range s.data {
					wantBits := math.Float32bits(v)
					if s.codec == CodecBF16 {
						wantBits = uint32(tensor.F32ToBF16(v)) << 16
					}
					if gb := math.Float32bits(got[i]); gb != wantBits {
						t.Fatalf("frame %d elem %d: bits %#x, want %#x", s.seq, i, gb, wantBits)
					}
				}
				Release(got)
			}
			fr.drop()
		}
	}
}

// The byte-order-independent codec path (used on big-endian hosts) must
// produce and accept the same bytes as the little-endian byte view.
func TestPortableCodecMatchesByteView(t *testing.T) {
	payload := goldenPayload()
	for _, codec := range []WireCodec{CodecF32, CodecBF16} {
		want := encodeFrame(0, kindField(KindWeight, codec), 0, 0, 0, 1, codec, payload)[frameHeaderLen:]
		body, scratch := encodeBodyPortable(codec, payload)
		if !bytes.Equal(body, want) {
			t.Fatalf("codec %d: portable encoding differs from the reference", codec)
		}
		if view, vs := encodeBody(codec, payload); !bytes.Equal(view, want) {
			t.Fatalf("codec %d: native encoding differs from the reference", codec)
		} else {
			Release(vs)
		}
		a, b := make([]float32, len(payload)), make([]float32, len(payload))
		decodeBodyPortable(codec, a, body)
		decodeBody(codec, b, body)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("codec %d elem %d: portable decode %#x != native %#x",
					codec, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
			}
		}
		Release(scratch)
	}
}
