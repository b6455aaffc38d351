// Package fnv64 is the module's one FNV-64a implementation. Every digest a
// peer, a file or a test compares — wire frame checksums, the message seal,
// plan and model digests, exchange tag names, serve request checksums — is
// computed here, inlined and allocation-free (hash/fnv's hash.Hash64 costs an
// interface call per Write on paths that hash every payload float).
package fnv64

import "encoding/binary"

const (
	offset = 14695981039346656037
	prime  = 1099511628211
)

// Sum is canonical FNV-64a over b: identical to hash/fnv's New64a.
func Sum(b []byte) uint64 {
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// SumLanes is the wire frame checksum: FNV-64a chaining over 64-bit
// little-endian lanes, byte-at-a-time only for the tail. It is not canonical
// FNV and need not be — it is computed on encode and verified on decode by
// peers running the same library — but any flipped byte still changes the
// chained state, at an eighth of the multiplies.
func SumLanes(b []byte) uint64 {
	h := uint64(offset)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Hash is a running canonical FNV-64a state for digests assembled from typed
// fields. Integers mix as their little-endian bytes, so a Hash fed field by
// field equals Sum over the same fields' encoding. A Hash is its own sum;
// converting a stored sum back to a Hash resumes the chain.
type Hash uint64

// New returns the initial state.
func New() Hash { return offset }

// U32 mixes v's four little-endian bytes.
func (h Hash) U32(v uint32) Hash {
	for i := 0; i < 4; i++ {
		h = (h ^ Hash(v&0xff)) * prime
		v >>= 8
	}
	return h
}

// U64 mixes v's eight little-endian bytes.
func (h Hash) U64(v uint64) Hash {
	for i := 0; i < 8; i++ {
		h = (h ^ Hash(v&0xff)) * prime
		v >>= 8
	}
	return h
}

// Str mixes the bytes of s.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash(s[i])) * prime
	}
	return h
}
