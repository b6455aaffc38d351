package serve

import (
	"encoding/hex"
	"testing"
)

// TestPinnedQueryRequestBytes pins the exact DGS1 encoding of one query
// request, captured before the checksum consolidation (one FNV-64a in
// internal/fnv64): a dgclloadgen built from one commit must still be
// understood by a dgclserve built from the next.
func TestPinnedQueryRequestBytes(t *testing.T) {
	got := hex.EncodeToString(AppendRequest(nil, &Request{Op: OpQuery, ID: 1<<40 | 7, Vertices: []int32{5, 0, 1 << 20}}))
	const want = "4447533101010000180000000bb6a55e08060050070000000001000003000000050000000000000000001000"
	if got != want {
		t.Fatalf("query request encodes to\n  %s\npinned\n  %s", got, want)
	}
}
