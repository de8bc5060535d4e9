package comm

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// The burst decoder faces the raw network inside an envelope: truncated
// inner frames, corrupt inner CRCs, count mismatches, nested envelopes.
// One damaged inner frame must surface as a typed *CorruptionError without
// poisoning its intact siblings, and no input may panic or allocate based
// on unvalidated lengths.

// burstInner builds a small valid data frame for burst tests.
func burstInner(seq uint64, codec WireCodec, payload []float32) []byte {
	return encodeFrame(1, kindField(KindWeight, codec), 3, int64(seq), 0, seq, codec, payload)
}

func FuzzBatchFrameDecode(f *testing.F) {
	in1 := burstInner(11, CodecF32, []float32{1, 2, 3})
	in2 := burstInner(12, CodecBF16, []float32{-0.5, 4})
	in3 := burstInner(13, CodecF32, nil)
	good := flattenBurst(1, 3, [][]byte{in1, in2, in3})
	f.Add(good)
	f.Add(good[:len(good)-5])                // truncated inner payload
	f.Add(good[:frameHeaderLen+len(in1)+10]) // truncated inner header
	corrupt := append([]byte(nil), good...)  // corrupt first inner payload byte
	corrupt[frameHeaderLen+frameHeaderLen] ^= 0x40
	f.Add(corrupt)
	// Envelope count disagrees with the inner frames actually present.
	short := append(encodeBurstHeader(1, 3, 3, len(in1)+len(in2)), append(append([]byte(nil), in1...), in2...)...)
	f.Add(short)
	// Nested envelope: a burst whose payload starts with another burst.
	f.Add(flattenBurst(1, 3, [][]byte{good}))
	// A plain frame followed by a burst on the same stream.
	f.Add(append(append([]byte(nil), in1...), good...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderLen*2))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data), size: 8, maxElems: 1 << 12}
		defer fr.drop()
		for {
			h, payload, synced, err := fr.next()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				var ce *CorruptionError
				if !errors.As(err, &ce) {
					t.Fatalf("unexpected error class: %v", err)
				}
				if !synced {
					return // alignment lost: the connection would be torn down
				}
				continue // one frame lost, stream still aligned — keep reading
			}
			if h.kind == ctlBurst {
				t.Fatalf("reader surfaced a raw burst envelope")
			}
			if len(payload) != h.n {
				t.Fatalf("payload length %d != header %d", len(payload), h.n)
			}
			Release(payload)
		}
	})
}

// A burst of mixed-codec frames must decode to exactly the frames that
// went in, in order, through the mode-agnostic reader.
func TestBurstRoundTrip(t *testing.T) {
	payloads := [][]float32{{1.5, -2.5, 0}, {8, 9}, nil}
	codecs := []WireCodec{CodecF32, CodecBF16, CodecF32}
	var wires [][]byte
	for i, p := range payloads {
		wires = append(wires, burstInner(uint64(20+i), codecs[i], p))
	}
	fr := &frameReader{r: bytes.NewReader(flattenBurst(1, 3, wires)), size: 8, maxElems: 1 << 12}
	for i, want := range payloads {
		h, got, synced, err := fr.next()
		if err != nil || !synced {
			t.Fatalf("frame %d: %v (synced=%v)", i, err, synced)
		}
		if h.seq != uint64(20+i) || h.epoch != 3 || len(got) != len(want) {
			t.Fatalf("frame %d: header/payload mismatch: %+v (%d elems)", i, h, len(got))
		}
		for j := range want {
			if codecs[i] == CodecF32 && got[j] != want[j] {
				t.Fatalf("frame %d payload[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
		Release(got)
	}
	if _, _, _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after the burst, got %v", err)
	}
}

// One corrupt inner payload must fail only that frame: its siblings decode
// and deliver, and the error is a synced *CorruptionError so the stream
// (and the reader) keep going.
func TestBurstCorruptInnerIsolated(t *testing.T) {
	in1 := burstInner(1, CodecF32, []float32{1, 2})
	in2 := burstInner(2, CodecF32, []float32{3, 4})
	in3 := burstInner(3, CodecF32, []float32{5, 6})
	wire := flattenBurst(1, 0, [][]byte{in1, in2, in3})
	// Flip a payload byte of the middle inner frame.
	wire[frameHeaderLen+len(in1)+frameHeaderLen] ^= 0x01
	fr := &frameReader{r: bytes.NewReader(wire), size: 8, maxElems: 1 << 12}

	h, p, synced, err := fr.next()
	if err != nil || h.seq != 1 {
		t.Fatalf("first sibling: %v (seq %d)", err, h.seq)
	}
	Release(p)
	_, _, synced, err = fr.next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt inner frame: wrong error class %v", err)
	}
	if !synced {
		t.Fatalf("corrupt inner frame lost stream alignment")
	}
	h, p, _, err = fr.next()
	if err != nil || h.seq != 3 {
		t.Fatalf("sibling after the damage: %v (seq %d)", err, h.seq)
	}
	Release(p)
}

// Structural damage — count mismatch, truncation, nesting — ends the burst
// with one terminal typed error; frames decoded before the damage still
// deliver, and the outer stream stays aligned (synced) because the
// envelope's byte count bounded the read.
func TestBurstTerminalCases(t *testing.T) {
	in1 := burstInner(1, CodecF32, []float32{1})
	in2 := burstInner(2, CodecF32, []float32{2})
	cases := []struct {
		name    string
		wire    []byte
		deliver int // intact frames before the terminal error
	}{
		{
			name:    "count mismatch",
			wire:    append(encodeBurstHeader(1, 0, 3, len(in1)+len(in2)), append(append([]byte(nil), in1...), in2...)...),
			deliver: 2,
		},
		{
			name:    "truncated inner payload",
			wire:    flattenBurst(1, 0, [][]byte{in1, in2})[:frameHeaderLen+len(in1)+len(in2)-2],
			deliver: 1,
		},
		{
			name:    "nested envelope",
			wire:    flattenBurst(1, 0, [][]byte{in1, flattenBurst(1, 0, [][]byte{in2})}),
			deliver: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fix up the envelope's byte count for the truncated case: the
			// receiver reads exactly n bytes, so model a sender whose count
			// field survived but whose payload was cut.
			wire := tc.wire
			if tc.name == "truncated inner payload" {
				hdr := encodeBurstHeader(1, 0, 2, len(wire)-frameHeaderLen)
				wire = append(hdr, wire[frameHeaderLen:]...)
			}
			fr := &frameReader{r: bytes.NewReader(wire), size: 8, maxElems: 1 << 12}
			delivered := 0
			for {
				_, p, synced, err := fr.next()
				if err == nil {
					delivered++
					Release(p)
					continue
				}
				if errors.Is(err, io.EOF) {
					t.Fatalf("burst ended without a terminal error (%d delivered)", delivered)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("wrong terminal error class: %v", err)
				}
				if !synced {
					t.Fatalf("terminal burst error lost stream alignment")
				}
				break
			}
			if delivered != tc.deliver {
				t.Fatalf("delivered %d intact frames before the damage, want %d", delivered, tc.deliver)
			}
		})
	}
}

// A corrupt envelope header is unrecoverable: its byte count cannot be
// trusted, so the reader reports an unsynced corruption (connection
// teardown + retransmission path).
func TestBurstEnvelopeHeaderCorruption(t *testing.T) {
	wire := flattenBurst(1, 0, [][]byte{burstInner(1, CodecF32, []float32{1})})
	wire[12] ^= 0x01 // count field, sealed by the envelope CRC
	_, _, synced, err := (&frameReader{r: bytes.NewReader(wire), size: 8, maxElems: 1 << 12}).next()
	if err == nil || synced {
		t.Fatalf("corrupt envelope header: err=%v synced=%v, want unsynced corruption", err, synced)
	}
}

// splitBursts must respect both the frame-count and byte caps, preserve
// order, and carry an oversized frame as a run of one.
func TestBurstSplit(t *testing.T) {
	small := len(burstInner(1, CodecF32, []float32{1}))
	var sizes []int
	for i := 0; i < maxBurstFrames+3; i++ {
		sizes = append(sizes, small)
	}
	runs := splitBursts(1<<12, sizes, nil)
	if len(runs) != 2 || runs[0] != maxBurstFrames || runs[1] != 3 {
		t.Fatalf("frame-count split: got %d runs", len(runs))
	}
	total := 0
	for _, n := range runs {
		total += n
	}
	if total != len(sizes) {
		t.Fatalf("split dropped frames: %d != %d", total, len(sizes))
	}
	// A frame bigger than the whole cap still travels (as a run of one).
	huge := int(burstByteCap(4)) + 1
	runs = splitBursts(4, []int{huge, small}, nil)
	if len(runs) != 2 || runs[0] != 1 {
		t.Fatalf("oversized frame not isolated: %d runs", len(runs))
	}
}
