package serve

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"dgcl/internal/fnv64"
)

// The serve protocol frames requests as DGS1 binary frames (the wire codec's
// bounded-decode discipline: validate every length against a cap before
// materializing memory, error — never panic — on malformed input, canonical
// encoding) and replies as length-prefixed JSON via wire.WriteControl, so one
// connection speaks compact fuzz-hardened requests inbound and debuggable
// control replies outbound.
//
// Request layout (all integers little-endian):
//
//	header (20 bytes): magic "DGS1" | version u8 | op u8 | 2 reserved |
//	                   body length u32 | body FNV-64a checksum u64
//	query body (12+):  id u64 | count u32 | count * vertex i32
//	stats body (8):    id u64
const (
	reqHeaderSize = 20
	protoVersion  = 1

	// OpQuery asks for the embeddings of a batch of vertices.
	OpQuery = 1
	// OpStats asks for a Stats snapshot.
	OpStats = 2

	// MaxQueryVertices caps one request's vertex list; the body cap follows
	// from it, so no oversized length prefix ever materializes memory.
	MaxQueryVertices = 4096

	maxReqBody = 12 + 4*MaxQueryVertices
)

var serveMagic = [4]byte{'D', 'G', 'S', '1'}

// Request is one decoded client request.
type Request struct {
	Op byte
	// ID is echoed in the reply so clients can pipeline.
	ID uint64
	// Vertices is the query batch (OpQuery only, 1..MaxQueryVertices).
	Vertices []int32
}

// QueryReply answers an OpQuery, one slot per requested vertex in order.
// Failed vertices have a non-empty Errors entry and a nil row.
type QueryReply struct {
	ID       uint64      `json:"id"`
	Rows     [][]float32 `json:"rows"`
	Versions []uint64    `json:"versions"`
	Cached   []bool      `json:"cached"`
	Errors   []string    `json:"errors"`
}

// StatsReply answers an OpStats.
type StatsReply struct {
	ID          uint64 `json:"id"`
	NumVertices int    `json:"num_vertices"`
	Stats       Stats  `json:"stats"`
}

// AppendRequest appends the canonical encoding of r to buf.
func AppendRequest(buf []byte, r *Request) []byte {
	start := len(buf)
	buf = append(buf, serveMagic[:]...)
	buf = append(buf, protoVersion, r.Op, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // body length, patched below
	buf = binary.LittleEndian.AppendUint64(buf, 0) // body checksum, patched below
	bodyStart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	if r.Op == OpQuery {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Vertices)))
		for _, v := range r.Vertices {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	body := buf[bodyStart:]
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(len(body)))
	binary.LittleEndian.PutUint64(buf[start+12:], fnv64.Sum(body))
	return buf
}

// DecodeRequest parses one complete request from the front of data, returning
// the request and the bytes consumed. Truncated, oversized, or bit-flipped
// inputs error without panicking, and nothing larger than the capped body
// length is ever allocated. The encoding is canonical: re-encoding a decoded
// request reproduces the input bytes (reserved bytes excepted).
func DecodeRequest(data []byte) (*Request, int, error) {
	if len(data) < reqHeaderSize {
		return nil, 0, fmt.Errorf("serve: short request header: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != serveMagic {
		return nil, 0, fmt.Errorf("serve: bad request magic %q", data[:4])
	}
	if data[4] != protoVersion {
		return nil, 0, fmt.Errorf("serve: unsupported request version %d", data[4])
	}
	op := data[5]
	if op != OpQuery && op != OpStats {
		return nil, 0, fmt.Errorf("serve: unknown request op %d", op)
	}
	length := binary.LittleEndian.Uint32(data[8:])
	if int64(length) > maxReqBody {
		return nil, 0, fmt.Errorf("serve: request body %d bytes exceeds cap %d", length, maxReqBody)
	}
	if len(data) < reqHeaderSize+int(length) {
		return nil, 0, fmt.Errorf("serve: truncated request: header declares %d body bytes, %d available", length, len(data)-reqHeaderSize)
	}
	sum := binary.LittleEndian.Uint64(data[12:])
	body := data[reqHeaderSize : reqHeaderSize+int(length)]
	if got := fnv64.Sum(body); got != sum {
		return nil, 0, fmt.Errorf("serve: request checksum mismatch: header %#x, body %#x", sum, got)
	}
	r := &Request{Op: op}
	switch op {
	case OpStats:
		if len(body) != 8 {
			return nil, 0, fmt.Errorf("serve: stats body %d bytes, need 8", len(body))
		}
		r.ID = binary.LittleEndian.Uint64(body)
	case OpQuery:
		if len(body) < 12 {
			return nil, 0, fmt.Errorf("serve: query body %d bytes, need at least 12", len(body))
		}
		r.ID = binary.LittleEndian.Uint64(body)
		count := binary.LittleEndian.Uint32(body[8:])
		if count == 0 || count > MaxQueryVertices {
			return nil, 0, fmt.Errorf("serve: query vertex count %d out of range [1,%d]", count, MaxQueryVertices)
		}
		if len(body) != 12+4*int(count) {
			return nil, 0, fmt.Errorf("serve: query body %d bytes, %d vertices need %d", len(body), count, 12+4*count)
		}
		r.Vertices = make([]int32, count)
		for i := range r.Vertices {
			r.Vertices[i] = int32(binary.LittleEndian.Uint32(body[12+4*i:]))
		}
	}
	return r, reqHeaderSize + int(length), nil
}

// WriteRequest encodes and writes one request with an armed write deadline.
func WriteRequest(conn net.Conn, r *Request, timeout time.Duration) error {
	if len(r.Vertices) > MaxQueryVertices {
		return fmt.Errorf("serve: query of %d vertices exceeds cap %d", len(r.Vertices), MaxQueryVertices)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("serve: arming write deadline: %w", err)
	}
	buf := AppendRequest(nil, r)
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("serve: writing request: %w", err)
	}
	return nil
}

// ReadRequest reads one request with an armed read deadline, in two bounded
// reads: the fixed header, then exactly the declared (capped) body.
func ReadRequest(conn net.Conn, timeout time.Duration) (*Request, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("serve: arming read deadline: %w", err)
	}
	hdr := make([]byte, reqHeaderSize)
	if err := readFull(conn, hdr); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[8:])
	if int64(length) > maxReqBody {
		return nil, fmt.Errorf("serve: request body %d bytes exceeds cap %d", length, maxReqBody)
	}
	buf := append(hdr, make([]byte, length)...)
	if err := readFull(conn, buf[reqHeaderSize:]); err != nil {
		return nil, err
	}
	r, _, err := DecodeRequest(buf)
	return r, err
}

func readFull(conn net.Conn, buf []byte) error {
	for n := 0; n < len(buf); {
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			return fmt.Errorf("serve: reading request: %w", err)
		}
	}
	return nil
}
