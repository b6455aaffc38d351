package fnv64

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func std(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func testBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}

func TestSumMatchesHashFNV(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		if b := testBytes(n); Sum(b) != std(b) {
			t.Errorf("Sum over %d bytes = %#x, hash/fnv %#x", n, Sum(b), std(b))
		}
	}
}

func TestHashEqualsSumOverTheEncodedFields(t *testing.T) {
	var enc []byte
	enc = binary.LittleEndian.AppendUint32(enc, 0xDEADBEEF)
	enc = binary.LittleEndian.AppendUint64(enc, 0x0123456789ABCDEF)
	enc = append(enc, "grad.0.1"...)
	got := New().U32(0xDEADBEEF).U64(0x0123456789ABCDEF).Str("grad.0.1")
	if uint64(got) != std(enc) {
		t.Fatalf("streamed = %#x, hash/fnv over the encoding %#x", uint64(got), std(enc))
	}
	// A stored sum resumes the chain.
	if resumed := Hash(uint64(New().U32(0xDEADBEEF))).U64(0x0123456789ABCDEF).Str("grad.0.1"); resumed != got {
		t.Fatalf("resumed = %#x, want %#x", uint64(resumed), uint64(got))
	}
	if uint64(New()) != std(nil) {
		t.Fatalf("New = %#x, want the offset basis %#x", uint64(New()), std(nil))
	}
}

func TestSumLanes(t *testing.T) {
	// Below one lane it is plain FNV-64a; from one lane up it chains 8-byte
	// little-endian words, then the tail bytes.
	for _, n := range []int{0, 1, 7} {
		if b := testBytes(n); SumLanes(b) != std(b) {
			t.Errorf("SumLanes over %d bytes = %#x, want canonical %#x", n, SumLanes(b), std(b))
		}
	}
	b := testBytes(19)
	want := uint64(offset)
	want = (want ^ binary.LittleEndian.Uint64(b)) * prime
	want = (want ^ binary.LittleEndian.Uint64(b[8:])) * prime
	for _, c := range b[16:] {
		want = (want ^ uint64(c)) * prime
	}
	if got := SumLanes(b); got != want {
		t.Fatalf("SumLanes = %#x, want %#x", got, want)
	}
	for i := range b {
		b[i] ^= 0x10
		if SumLanes(b) == want {
			t.Errorf("flipping byte %d left the sum unchanged", i)
		}
		b[i] ^= 0x10
	}
}
