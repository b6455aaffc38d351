package wire

import (
	"strings"
	"testing"

	"dgcl/internal/core"
	"dgcl/internal/fnv64"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

func dataFrame() *Frame {
	m := tensor.New(3, 4)
	for i := range m.Data {
		m.Data[i] = float32(i) * 0.5
	}
	return &Frame{
		Type:   frameData,
		Seq:    42,
		Key:    runtime.TransferKey{Stage: 2, Index: 7},
		Src:    1,
		Dst:    3,
		MsgSum: 0xDEADBEEFCAFE,
		Rows:   m,
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	want := dataFrame()
	buf := encodeFrame(nil, want)
	got, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Type != frameData || got.Seq != want.Seq || got.Key != want.Key ||
		got.Src != want.Src || got.Dst != want.Dst || got.MsgSum != want.MsgSum {
		t.Fatalf("header fields differ: got %+v want %+v", got, want)
	}
	if got.Rows.Rows != want.Rows.Rows || got.Rows.Cols != want.Rows.Cols {
		t.Fatalf("payload shape %dx%d, want %dx%d", got.Rows.Rows, got.Rows.Cols, want.Rows.Rows, want.Rows.Cols)
	}
	if diff := tensor.MaxAbsDiff(got.Rows, want.Rows); diff != 0 {
		t.Fatalf("payload differs by %v; float32 bits must survive the wire exactly", diff)
	}
}

func TestExchangeFrameRoundTripF32(t *testing.T) {
	m := tensor.New(2, 5).FillRandom(9)
	want := &Frame{Type: frameExchange, Seq: 7, Rank: 3, Kind: kindF32, TagSum: hashTag("grad.0.1"), Rows: m}
	got, _, err := DecodeFrame(encodeFrame(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != want.Rank || got.Kind != kindF32 || got.TagSum != want.TagSum || got.Seq != want.Seq {
		t.Fatalf("exchange header differs: got %+v", got)
	}
	if diff := tensor.MaxAbsDiff(got.Rows, want.Rows); diff != 0 {
		t.Fatalf("exchange payload differs by %v", diff)
	}
}

func TestExchangeFrameRoundTripF64(t *testing.T) {
	// A value with no short decimal expansion: the bits must survive exactly.
	want := &Frame{Type: frameExchange, Seq: 9, Rank: 0, Kind: kindF64, TagSum: hashTag("loss"), F64: []float64{1.0 / 3.0}}
	got, _, err := DecodeFrame(encodeFrame(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != kindF64 || len(got.F64) != 1 || got.F64[0] != want.F64[0] {
		t.Fatalf("f64 exchange round trip: got %+v", got)
	}
}

func TestCreditFrameRoundTrip(t *testing.T) {
	got, _, err := DecodeFrame(encodeFrame(nil, &Frame{Type: frameCredit, Credits: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != frameCredit || got.Credits != 5 {
		t.Fatalf("credit round trip: got %+v", got)
	}
}

func TestDecodeFrameRejectsTruncation(t *testing.T) {
	buf := encodeFrame(nil, dataFrame())
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeFrame(buf[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(buf))
		}
	}
}

func TestDecodeFrameRejectsBitFlips(t *testing.T) {
	clean := encodeFrame(nil, dataFrame())
	for i := range clean {
		buf := append([]byte(nil), clean...)
		buf[i] ^= 0x40
		f, _, err := DecodeFrame(buf)
		if err != nil {
			continue
		}
		// The frame checksum covers the entire body (including the carried
		// message seal), so the only survivable flips are the reserved
		// header bytes the parser tolerates.
		if i != 6 && i != 7 {
			t.Fatalf("bit flip at byte %d decoded cleanly: %+v", i, f)
		}
	}
}

func TestDecodeFrameRejectsOversizedBody(t *testing.T) {
	buf := encodeFrame(nil, dataFrame())
	buf[8] = 0xFF // length low byte
	buf[9] = 0xFF
	buf[10] = 0xFF
	buf[11] = 0x7F
	_, _, err := DecodeFrame(buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversized body length not capped: %v", err)
	}
}

func TestDecodeFrameRejectsDimPayloadMismatch(t *testing.T) {
	f := dataFrame()
	buf := encodeFrame(nil, f)
	// Claim one more row than the payload carries, repair the body checksum
	// so the dimension check (not the checksum) must catch it.
	body := buf[headerSize:]
	body[32] = byte(f.Rows.Rows + 1)
	patchBodySum(buf)
	_, _, err := DecodeFrame(buf)
	if err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("row/payload mismatch not rejected: %v", err)
	}
}

// patchBodySum recomputes the frame checksum after a test mutates the body.
func patchBodySum(buf []byte) {
	body := buf[headerSize:]
	buf[12] = 0
	sum := fnv64.SumLanes(body)
	for i := 0; i < 8; i++ {
		buf[12+i] = byte(sum >> (8 * i))
	}
}

func TestPlanDigestDistinguishesPlans(t *testing.T) {
	p1 := &core.Plan{K: 4, BytesPerVertex: 64, Stages: [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2, 3}}},
	}}
	p2 := &core.Plan{K: 4, BytesPerVertex: 64, Stages: [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2, 4}}},
	}}
	if PlanDigest(p1) != PlanDigest(p1) {
		t.Fatal("PlanDigest is not deterministic")
	}
	if PlanDigest(p1) == PlanDigest(p2) {
		t.Fatal("distinct plans share a digest")
	}
	if PlanDigest(p1) == PlanDigest(&core.Plan{K: 4, BytesPerVertex: 64}) {
		t.Fatal("empty plan collides with populated plan")
	}
}
