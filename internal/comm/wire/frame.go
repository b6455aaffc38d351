// Package wire is the net.Conn transport: it moves collective payloads
// between OS processes as length-prefixed, checksummed binary frames over
// pooled TCP connections, behind the same Transport seam the in-memory
// channel transport implements. One training run spans N processes, each a
// wire Node hosting a subset of the cluster's clients; the loopback Fabric
// runs all N endpoints in one process (every cross-client payload still
// crosses a real socket) for tests and benchmarks.
//
// The codec follows the checkpoint snapshot codec's bounded-decode
// discipline: every length is validated against a cap before any memory is
// materialized, malformed input returns a wrapped error, and nothing ever
// panics. See DESIGN.md §12 for the frame layout, handshake, and
// backpressure protocol.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dgcl/internal/core"
	"dgcl/internal/fnv64"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

// Frame layout (all integers little-endian):
//
//	header (20 bytes): magic "DGW1" | version u8 | type u8 | 2 reserved |
//	                   body length u32 | body FNV-64a checksum u64
//	data body (40+):   seq u64 | stage i32 | index i32 | src i32 | dst i32 |
//	                   message checksum u64 | rows i32 | cols i32 |
//	                   rows*cols float32 payload
//	exchange body (32+): seq u64 | rank i32 | kind u8 | 3 reserved |
//	                   tag hash u64 | rows i32 | cols i32 | payload
//	                   (kind 0: float32 matrix, kind 1: float64 vector)
//	credit body (4):   count u32
//
// The frame checksum covers the whole body and guards the framing layer
// itself (a codec or socket bug shears the link down rather than delivering
// garbage). The message checksum is the runtime.Message seal carried verbatim
// end to end: faults injected above the wire corrupt the payload after
// sealing, so the frame checksum still passes and the corruption is detected
// by the receiving fault layer exactly as on the channel transport.
const (
	headerSize  = 20
	wireVersion = 1

	frameData     = 1
	frameCredit   = 2
	frameExchange = 3

	dataHeaderSize     = 40
	exchangeHeaderSize = 32

	// maxBody caps a frame body before any allocation; oversized length
	// prefixes are rejected without materializing anything.
	maxBody = 1 << 26

	// maxDim bounds the row/col counts of a payload matrix individually, so
	// their product cannot overflow before the exact-size check.
	maxDim = 1 << 26

	kindF32 = 0
	kindF64 = 1
)

var wireMagic = [4]byte{'D', 'G', 'W', '1'}

// Frame is one decoded wire frame.
type Frame struct {
	Type byte
	Seq  uint64
	// Data frames.
	Key      runtime.TransferKey
	Src, Dst int32
	MsgSum   uint64
	// Exchange frames.
	Rank   int32
	Kind   byte
	TagSum uint64
	F64    []float64
	// Payload of data frames and kindF32 exchanges.
	Rows *tensor.Matrix
	// Msg is a data frame's payload to encode when Rows is nil: the
	// sender's message as the stage loop handed it over (for an in-place
	// message, rows read straight from the sender's slot storage). Decoding
	// always fills Rows.
	Msg runtime.Message
	// Credit frames.
	Credits uint32
}

// hashTag names an exchange stream; both sides derive it from the same tag
// string.
func hashTag(tag string) uint64 { return uint64(fnv64.New().Str(tag)) }

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int32) []byte  { return appendU32(b, uint32(v)) }

// encodeFrame appends the complete encoding of f to buf and returns the
// extended slice. The body checksum is computed over the encoded body.
func encodeFrame(buf []byte, f *Frame) []byte {
	start := len(buf)
	buf = append(buf, wireMagic[:]...)
	buf = append(buf, wireVersion, f.Type, 0, 0)
	buf = appendU32(buf, 0) // body length, patched below
	buf = appendU64(buf, 0) // body checksum, patched below
	bodyStart := len(buf)
	switch f.Type {
	case frameData:
		buf = appendU64(buf, f.Seq)
		buf = appendI32(buf, int32(f.Key.Stage))
		buf = appendI32(buf, int32(f.Key.Index))
		buf = appendI32(buf, f.Src)
		buf = appendI32(buf, f.Dst)
		buf = appendU64(buf, f.MsgSum)
		msg := f.Msg
		if f.Rows != nil {
			msg = runtime.Message{Rows: f.Rows}
		}
		buf = appendI32(buf, int32(msg.NumRows()))
		buf = appendI32(buf, int32(msg.Cols()))
		for i := 0; i < msg.NumRows(); i++ {
			for _, x := range msg.Row(i) {
				buf = appendU32(buf, math.Float32bits(x))
			}
		}
	case frameExchange:
		buf = appendU64(buf, f.Seq)
		buf = appendI32(buf, f.Rank)
		buf = append(buf, f.Kind, 0, 0, 0)
		buf = appendU64(buf, f.TagSum)
		if f.Kind == kindF64 {
			buf = appendI32(buf, int32(len(f.F64)))
			buf = appendI32(buf, 1)
			for _, x := range f.F64 {
				buf = appendU64(buf, math.Float64bits(x))
			}
		} else {
			buf = appendI32(buf, int32(f.Rows.Rows))
			buf = appendI32(buf, int32(f.Rows.Cols))
			for _, x := range f.Rows.Data {
				buf = appendU32(buf, math.Float32bits(x))
			}
		}
	case frameCredit:
		buf = appendU32(buf, f.Credits)
	default:
		panic(fmt.Sprintf("wire: encodeFrame: unknown frame type %d", f.Type))
	}
	body := buf[bodyStart:]
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(len(body)))
	binary.LittleEndian.PutUint64(buf[start+12:], fnv64.SumLanes(body))
	return buf
}

// header is a parsed, validated frame header.
type header struct {
	typ    byte
	length int
	sum    uint64
}

// parseHeader validates a raw 20-byte header against maxBody. No body memory
// has been touched yet when it rejects.
func parseHeader(b []byte) (header, error) {
	if len(b) < headerSize {
		return header{}, fmt.Errorf("wire: short frame header: %d bytes", len(b))
	}
	if [4]byte(b[:4]) != wireMagic {
		return header{}, fmt.Errorf("wire: bad frame magic %q", b[:4])
	}
	if b[4] != wireVersion {
		return header{}, fmt.Errorf("wire: unsupported frame version %d", b[4])
	}
	typ := b[5]
	if typ != frameData && typ != frameCredit && typ != frameExchange {
		return header{}, fmt.Errorf("wire: unknown frame type %d", typ)
	}
	length := binary.LittleEndian.Uint32(b[8:])
	if int64(length) > maxBody {
		return header{}, fmt.Errorf("wire: frame body %d bytes exceeds cap %d", length, maxBody)
	}
	return header{typ: typ, length: int(length), sum: binary.LittleEndian.Uint64(b[12:])}, nil
}

// payloadDims validates a rows×cols declaration against the exact remaining
// body bytes and returns the element count.
func payloadDims(rows, cols int32, remaining, elemSize int) (int, error) {
	if rows < 0 || cols < 0 || rows > maxDim || cols > maxDim {
		return 0, fmt.Errorf("wire: payload dims %dx%d out of range", rows, cols)
	}
	n := int64(rows) * int64(cols)
	if n*int64(elemSize) != int64(remaining) {
		return 0, fmt.Errorf("wire: payload %dx%d needs %d bytes, frame carries %d", rows, cols, n*int64(elemSize), remaining)
	}
	return int(n), nil
}

// decodeBody parses a checksum-verified body. Matrix payloads come from pool
// when one is supplied (the link reader's steady-state path), freshly
// allocated otherwise.
func decodeBody(typ byte, body []byte, pool *runtime.MatrixPool) (Frame, error) {
	f := Frame{Type: typ}
	switch typ {
	case frameData:
		if len(body) < dataHeaderSize {
			return f, fmt.Errorf("wire: data body %d bytes, need %d", len(body), dataHeaderSize)
		}
		f.Seq = binary.LittleEndian.Uint64(body)
		f.Key.Stage = int(int32(binary.LittleEndian.Uint32(body[8:])))
		f.Key.Index = int(int32(binary.LittleEndian.Uint32(body[12:])))
		f.Src = int32(binary.LittleEndian.Uint32(body[16:]))
		f.Dst = int32(binary.LittleEndian.Uint32(body[20:]))
		f.MsgSum = binary.LittleEndian.Uint64(body[24:])
		rows := int32(binary.LittleEndian.Uint32(body[32:]))
		cols := int32(binary.LittleEndian.Uint32(body[36:]))
		n, err := payloadDims(rows, cols, len(body)-dataHeaderSize, 4)
		if err != nil {
			return f, err
		}
		f.Rows = decodeF32(body[dataHeaderSize:], int(rows), int(cols), n, pool)
	case frameExchange:
		if len(body) < exchangeHeaderSize {
			return f, fmt.Errorf("wire: exchange body %d bytes, need %d", len(body), exchangeHeaderSize)
		}
		f.Seq = binary.LittleEndian.Uint64(body)
		f.Rank = int32(binary.LittleEndian.Uint32(body[8:]))
		f.Kind = body[12]
		if f.Kind != kindF32 && f.Kind != kindF64 {
			return f, fmt.Errorf("wire: unknown exchange payload kind %d", f.Kind)
		}
		f.TagSum = binary.LittleEndian.Uint64(body[16:])
		rows := int32(binary.LittleEndian.Uint32(body[24:]))
		cols := int32(binary.LittleEndian.Uint32(body[28:]))
		if f.Kind == kindF64 {
			if cols != 1 {
				// The f64 encoding is a column vector; accepting other
				// shapes would make the codec non-canonical.
				return f, fmt.Errorf("wire: f64 exchange payload is %dx%d, want column vector", rows, cols)
			}
			n, err := payloadDims(rows, cols, len(body)-exchangeHeaderSize, 8)
			if err != nil {
				return f, err
			}
			f.F64 = make([]float64, n)
			for i := range f.F64 {
				f.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[exchangeHeaderSize+8*i:]))
			}
		} else {
			n, err := payloadDims(rows, cols, len(body)-exchangeHeaderSize, 4)
			if err != nil {
				return f, err
			}
			f.Rows = decodeF32(body[exchangeHeaderSize:], int(rows), int(cols), n, pool)
		}
	case frameCredit:
		if len(body) != 4 {
			return f, fmt.Errorf("wire: credit body %d bytes, need 4", len(body))
		}
		f.Credits = binary.LittleEndian.Uint32(body)
	default:
		return f, fmt.Errorf("wire: unknown frame type %d", typ)
	}
	return f, nil
}

func decodeF32(payload []byte, rows, cols, n int, pool *runtime.MatrixPool) *tensor.Matrix {
	var m *tensor.Matrix
	if pool != nil {
		m = pool.Get(rows, cols)
	} else {
		m = tensor.New(rows, cols)
	}
	for i := 0; i < n; i++ {
		m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return m
}

// DecodeFrame parses one complete frame from the front of data, returning
// the frame and the bytes consumed. It is the composition the link reader
// performs incrementally (header validation, body cap, frame checksum, body
// decode) exposed as a pure function for tests and the fuzz target:
// truncated, oversized, or bit-flipped inputs error without panicking, and
// nothing larger than the declared (capped) body length is ever allocated.
func DecodeFrame(data []byte) (*Frame, int, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < headerSize+h.length {
		return nil, 0, fmt.Errorf("wire: truncated frame: header declares %d body bytes, %d available", h.length, len(data)-headerSize)
	}
	body := data[headerSize : headerSize+h.length]
	if got := fnv64.SumLanes(body); got != h.sum {
		return nil, 0, fmt.Errorf("wire: frame checksum mismatch: header %#x, body %#x", h.sum, got)
	}
	f, err := decodeBody(h.typ, body, nil)
	if err != nil {
		return nil, 0, err
	}
	return &f, headerSize + h.length, nil
}

// PlanDigest fingerprints a communication plan for the connection handshake:
// two processes may only train together when they compiled identical plans.
func PlanDigest(p *core.Plan) uint64 {
	h := fnv64.New()
	h = h.U64(uint64(p.K))
	h = h.U64(uint64(p.BytesPerVertex))
	h = h.U64(uint64(len(p.Stages)))
	for _, st := range p.Stages {
		h = h.U64(uint64(len(st)))
		for _, tr := range st {
			h = h.U64(uint64(tr.Src))
			h = h.U64(uint64(tr.Dst))
			h = h.U64(uint64(len(tr.Vertices)))
			for _, v := range tr.Vertices {
				h = h.U64(uint64(uint32(v)))
			}
		}
	}
	return uint64(h)
}

// DigestWithChunking folds the transfer-chunking granularity into a plan
// digest. Chunking (runtime.ChunkRows, DESIGN.md §16) splits plan transfers
// into sub-transfers at compile time, which changes the wire-visible
// transfer keys — two peers compiled at different granularities would route
// each other's frames to the wrong collective slots. Folding the
// granularity into the hello's plan sum turns that desync into a handshake
// rejection.
func DigestWithChunking(planSum uint64, chunkRows int) uint64 {
	return uint64(fnv64.Hash(planSum).U64(uint64(uint32(chunkRows))))
}
