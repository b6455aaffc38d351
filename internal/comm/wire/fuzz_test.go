package wire

import (
	"testing"

	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

// FuzzDecodeFrame drives the full frame decode path (header validation, body
// cap, frame checksum, body decode) with arbitrary bytes. The invariants
// mirror the checkpoint codec's: malformed input — truncated, oversized,
// bit-flipped, or garbage — must return an error, never panic, and must never
// allocate a payload larger than the capped, validated dimensions declare.
func FuzzDecodeFrame(f *testing.F) {
	m := tensor.New(2, 3)
	for i := range m.Data {
		m.Data[i] = float32(i) - 1.5
	}
	seeds := [][]byte{
		encodeFrame(nil, &Frame{Type: frameData, Seq: 1,
			Key: runtime.TransferKey{Stage: 1, Index: 2}, Src: 0, Dst: 1, MsgSum: 99, Rows: m}),
		encodeFrame(nil, &Frame{Type: frameExchange, Seq: 2, Rank: 1, Kind: kindF32,
			TagSum: hashTag("grad.0.0"), Rows: m}),
		encodeFrame(nil, &Frame{Type: frameExchange, Seq: 3, Rank: 0, Kind: kindF64,
			TagSum: hashTag("loss"), F64: []float64{0.25, -1}}),
		encodeFrame(nil, &Frame{Type: frameCredit, Credits: 1}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncated
		flip := append([]byte(nil), s...)
		flip[len(flip)/3] ^= 0x10
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if fr != nil || n != 0 {
				t.Fatalf("error return leaked a partial frame: %v, %d", fr, n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// A frame that decoded must re-encode to the same bytes it came
		// from (the codec is canonical), so decode(encode(x)) == x holds
		// for everything the reader accepts.
		re := encodeFrame(nil, fr)
		if len(re) != n {
			t.Fatalf("re-encode is %d bytes, decode consumed %d", len(re), n)
		}
		for i := range re {
			if re[i] != data[i] && i != 6 && i != 7 { // reserved bytes are not canonical
				t.Fatalf("re-encode differs at byte %d: %#x vs %#x", i, re[i], data[i])
			}
		}
		if fr.Rows != nil && len(fr.Rows.Data) > maxBody/4 {
			t.Fatalf("payload of %d floats exceeds the body cap", len(fr.Rows.Data))
		}
	})
}
