package runtime

import (
	"hash/fnv"
	"math"
	"testing"

	"dgcl/internal/tensor"
)

// TestPinnedPayloadChecksum pins the message seal — canonical byte-wise
// FNV-64a over every float32's little-endian bits — against the standard
// library's implementation, kept here as the independent reference, and
// against a golden value captured before the checksum consolidation. The seal
// crosses the wire verbatim, so it may not change.
func TestPinnedPayloadChecksum(t *testing.T) {
	m := tensor.New(3, 5)
	for i := range m.Data {
		m.Data[i] = float32(i)*0.75 - 4
	}
	ref := fnv.New64a()
	for _, f := range m.Data {
		bits := math.Float32bits(f)
		ref.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
	}
	got := payloadChecksum(m)
	if got != ref.Sum64() {
		t.Errorf("payloadChecksum = %#x, hash/fnv reference %#x", got, ref.Sum64())
	}
	if want := uint64(0x62d97c4d304282eb); got != want {
		t.Errorf("payloadChecksum = %#x, pinned %#x", got, want)
	}
	if sealed := NewMessage(m); sealed.Checksum != got || !sealed.Valid() {
		t.Errorf("NewMessage seals %#x, want %#x", sealed.Checksum, got)
	}
}
