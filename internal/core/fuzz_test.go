package core

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzReadPlanJSON: the plan decoder must never panic and must reject
// structurally invalid plans.
func FuzzReadPlanJSON(f *testing.F) {
	f.Add(`{"k":4,"bytes_per_vertex":4,"algorithm":"x","stages":[[{"Src":0,"Dst":1,"Vertices":[1,2]}]]}`)
	f.Add(`{"k":0}`)
	f.Add(`garbage`)
	f.Add(`{"k":2,"bytes_per_vertex":1,"stages":[[{"Src":1,"Dst":1,"Vertices":[]}]]}`)
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ReadPlanJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted plans answer queries without panicking.
		_ = p.NumStages()
		_ = p.TotalBytes()
		_ = p.TableMemoryBytes()
		_ = p.ComputeStats(nil)
		_ = p.BackwardSchedule()
	})
}

// planFromBytes derives a structurally valid plan deterministically from
// fuzzed primitives, so the round-trip property gets arbitrary (but legal)
// shapes: ragged stages, empty vertex lists, every src/dst combination.
func planFromBytes(k int, bytesPerVertex int64, algorithm string, data []byte) *Plan {
	p := NewPlan(k, bytesPerVertex, algorithm)
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	numStages := int(next()) % 5
	for s := 0; s < numStages; s++ {
		var stage []Transfer
		numTransfers := int(next()) % 4
		for t := 0; t < numTransfers; t++ {
			src := int(next()) % k
			dst := int(next()) % k
			if src == dst {
				dst = (dst + 1) % k
			}
			if src == dst { // k == 1: no legal transfer exists
				continue
			}
			var verts []int32
			numVerts := int(next()) % 6
			for v := 0; v < numVerts; v++ {
				verts = append(verts, int32(next()))
			}
			stage = append(stage, Transfer{Src: src, Dst: dst, Vertices: verts})
		}
		p.Stages = append(p.Stages, stage)
	}
	return p
}

// plansEquivalent compares plans structurally, treating nil and empty
// slices as equal (JSON cannot tell them apart, so DeepEqual would flag
// spurious mismatches).
func plansEquivalent(a, b *Plan) bool {
	if a.K != b.K || a.BytesPerVertex != b.BytesPerVertex || a.Algorithm != b.Algorithm {
		return false
	}
	if len(a.Stages) != len(b.Stages) {
		return false
	}
	for si := range a.Stages {
		if len(a.Stages[si]) != len(b.Stages[si]) {
			return false
		}
		for ti := range a.Stages[si] {
			ta, tb := a.Stages[si][ti], b.Stages[si][ti]
			if ta.Src != tb.Src || ta.Dst != tb.Dst || len(ta.Vertices) != len(tb.Vertices) {
				return false
			}
			for vi := range ta.Vertices {
				if ta.Vertices[vi] != tb.Vertices[vi] {
					return false
				}
			}
		}
	}
	return true
}

// FuzzPlanJSONRoundTrip: decode(encode(p)) must reproduce p exactly, and
// decoding a damaged encoding must error (or decode cleanly), never panic.
func FuzzPlanJSONRoundTrip(f *testing.F) {
	f.Add(4, int64(8), "spst", []byte{2, 1, 0, 1, 3, 10, 20, 30})
	f.Add(1, int64(1), "", []byte{1, 1, 0, 0})
	f.Add(8, int64(1024), "p2p", []byte{4, 3, 7, 2, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, k int, bytesPerVertex int64, algorithm string, data []byte) {
		// JSON replaces invalid UTF-8 with U+FFFD, so losslessness only
		// holds for valid algorithm strings.
		if k < 1 || k > 64 || bytesPerVertex < 1 || len(algorithm) > 128 || !utf8.ValidString(algorithm) {
			return
		}
		p := planFromBytes(k, bytesPerVertex, algorithm, data)
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("encode valid plan: %v", err)
		}
		encoded := buf.Bytes()
		q, err := ReadPlanJSON(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("decode own encoding: %v\n%s", err, encoded)
		}
		if !plansEquivalent(p, q) {
			t.Fatalf("round trip changed the plan:\nbefore %+v\nafter  %+v", p, q)
		}
		// Damage one byte of the encoding: the decoder must reject or accept
		// without panicking, and an accepted plan must still answer queries.
		if len(encoded) > 0 && len(data) > 0 {
			damaged := append([]byte(nil), encoded...)
			pos := int(data[0]) % len(damaged)
			damaged[pos] ^= 1 << (data[0] % 8)
			if d, err := ReadPlanJSON(bytes.NewReader(damaged)); err == nil {
				_ = d.NumStages()
				_ = d.TotalBytes()
				_ = d.ComputeStats(nil)
			}
		}
	})
}
