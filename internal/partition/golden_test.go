package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dgcl/internal/graph"
)

// assignDigest is the FNV-64a hash of the assignment, 4 little-endian bytes
// per vertex.
func assignDigest(assign []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint32(b[:], uint32(a))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPartitionGoldenDigests pins Partition.Assign on the evaluation graphs.
// The digests were captured from the map-and-sort.Slice coarsening this
// package started with; every change to the partitioner's internals since
// must reproduce them, because partitions feed plan digests that separate
// processes of a multi-process run compare at the wire handshake.
func TestPartitionGoldenDigests(t *testing.T) {
	cases := []struct {
		name    string
		ds      graph.Dataset
		scale   int
		gpusPer []int     // one entry = KWay, several = Hierarchical
		want    [3]uint64 // seeds 1..3
	}{
		{"orkut128-hier8+8", graph.ComOrkut, 128, []int{8, 8}, [3]uint64{0x24b9f07de38f3dc8, 0xf9a4d80bb4f3c349, 0xe8ad636ecb90de9e}},
		{"orkut256-k8", graph.ComOrkut, 256, []int{8}, [3]uint64{0x0ad931bf7e0f7e35, 0x9cf0a3658971ed95, 0xade0c8703aa21d55}},
		{"reddit128-k4", graph.Reddit, 128, []int{4}, [3]uint64{0x821edb61fb182aa5, 0xfa2eb993c19750a5, 0x5edd404c376993b6}},
		{"webgoogle64-k4", graph.WebGoogle, 64, []int{4}, [3]uint64{0x02c0dd61396d0746, 0x9f68597258ec9197, 0xb5c9bfcf9f069755}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				g := c.ds.Generate(c.scale, seed)
				p, err := Hierarchical(g, c.gpusPer, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := assignDigest(p.Assign), c.want[seed-1]; got != want {
					t.Errorf("Assign digest %#016x, golden %#016x", got, want)
				}
			})
		}
	}
}
