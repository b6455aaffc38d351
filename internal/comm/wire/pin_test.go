package wire

import (
	"encoding/hex"
	"testing"

	"dgcl/internal/core"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

// Pins captured before the checksum consolidation (one FNV-64a in
// internal/fnv64): the handshake digests and the exact encoded bytes of one
// frame of each type and of the hello. Two builds that disagree on any of
// these cannot train together, so a refactor of the hashing or framing code
// must leave every value here unchanged.

func pinPlan() *core.Plan {
	return &core.Plan{K: 3, BytesPerVertex: 32, Algorithm: "spst", Stages: [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{0, 4, 7}}, {Src: 2, Dst: 1, Vertices: []int32{9}}},
		{{Src: 1, Dst: 2, Vertices: []int32{0, 4}}},
		{{Src: 2, Dst: 0, Vertices: []int32{5, 9, 11, 12}}},
	}}
}

func TestPinnedPlanDigests(t *testing.T) {
	sum := PlanDigest(pinPlan())
	if want := uint64(0x805d6a19cf224b05); sum != want {
		t.Errorf("PlanDigest = %#x, pinned %#x", sum, want)
	}
	if got, want := DigestWithChunking(sum, 256), uint64(0xa0fae5c886f24aca); got != want {
		t.Errorf("DigestWithChunking(256) = %#x, pinned %#x", got, want)
	}
	if got, want := DigestWithChunking(sum, 0), uint64(0x664d6152d8c61da5); got != want {
		t.Errorf("DigestWithChunking(0) = %#x, pinned %#x", got, want)
	}
	if got, want := hashTag("grad.0.1"), uint64(0xe9c976cda98b73f6); got != want {
		t.Errorf("hashTag = %#x, pinned %#x", got, want)
	}
}

func TestPinnedFrameBytes(t *testing.T) {
	rows := tensor.New(3, 3)
	for i := range rows.Data {
		rows.Data[i] = float32(i) - 1.5
	}
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"data", encodeFrame(nil, &Frame{
			Type: frameData, Seq: 42, Key: runtime.TransferKey{Stage: 2, Index: 7},
			Src: 1, Dst: 3, MsgSum: 0xDEADBEEFCAFE, Rows: rows,
		}), "44475731010100004c00000087fa88466128b26b2a0000000000000002000000070000000100000003000000fecaefbeadde000003000000030000000000c0bf000000bf0000003f0000c03f0000204000006040000090400000b0400000d040"},
		{"exchange-f64", encodeFrame(nil, &Frame{
			Type: frameExchange, Seq: 9, Rank: 2, Kind: kindF64, TagSum: hashTag("loss"),
			F64: []float64{1.0 / 3.0, -2.5, 0},
		}), "4447573101030000380000007c1501d810985f6e09000000000000000200000001000000ba212671aded4bce0300000001000000555555555555d53f00000000000004c00000000000000000"},
		{"credit", encodeFrame(nil, &Frame{Type: frameCredit, Credits: 5}), "4447573101020000040000002065c1ee551a402d05000000"},
		{"hello", encodeHello(hello{
			nodeID: 1, clusterID: "dgcl-run#g2", planSum: 0x0123456789ABCDEF, ranks: []int32{2, 3},
		}), "4447574801010000000b0000006467636c2d72756e236732efcdab8967452301020000000200000003000000"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes to\n  %s\npinned\n  %s", tc.name, got, tc.want)
		}
	}
}
