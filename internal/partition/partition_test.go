package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dgcl/internal/graph"
	"dgcl/internal/testutil"
)

func TestKWayBasics(t *testing.T) {
	g := graph.Grid2D(16, 16)
	p, err := KWay(g, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if b := p.Balance(); b > 1.10 {
		t.Fatalf("balance %f exceeds 1.10", b)
	}
	sizes := p.Sizes()
	for i, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d empty: %v", i, sizes)
		}
	}
}

func TestKWayErrors(t *testing.T) {
	g := graph.Ring(4)
	if _, err := KWay(g, 0, Options{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := KWay(g, 10, Options{}); err == nil {
		t.Fatal("k>n should fail")
	}
}

func TestKWaySinglePart(t *testing.T) {
	g := graph.Ring(10)
	p, err := KWay(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeCut(g) != 0 {
		t.Fatal("single part must have zero cut")
	}
}

func TestKWayBeatsHashOnStructuredGraphs(t *testing.T) {
	// This is the property the paper relies on: METIS-style partitioning
	// yields a far smaller cut (hence communication volume) than naive
	// assignment on graphs with locality.
	g := graph.Grid2D(32, 32)
	ml, err := KWay(g, 8, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := Hash(g, 8)
	if mlCut, hCut := ml.EdgeCut(g), h.EdgeCut(g); mlCut*2 >= hCut {
		t.Fatalf("multilevel cut %d not much better than hash cut %d", mlCut, hCut)
	}
}

func TestKWayOnCommunityGraph(t *testing.T) {
	g := graph.CommunityGraph(2000, 16, 8, 0.9, 5)
	p, err := KWay(g, 8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if b := p.Balance(); b > 1.12 {
		t.Fatalf("balance %f", b)
	}
	frac := float64(p.EdgeCut(g)) / float64(g.NumEdges())
	if frac > 0.6 {
		t.Fatalf("cut fraction %f too high for community graph", frac)
	}
}

func TestKWayDeterministic(t *testing.T) {
	g := graph.CommunityGraph(500, 10, 4, 0.8, 2)
	a, _ := KWay(g, 4, Options{Seed: 9})
	b, _ := KWay(g, 4, Options{Seed: 9})
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("same seed must give same partition")
		}
	}
}

func TestHashAndRange(t *testing.T) {
	g := graph.Ring(10)
	h := Hash(g, 3)
	if err := h.Validate(g); err != nil {
		t.Fatal(err)
	}
	if h.Assign[0] != 0 || h.Assign[4] != 1 || h.Assign[5] != 2 {
		t.Fatalf("hash assignment wrong: %v", h.Assign)
	}
	r := Range(g, 3)
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r.Assign[0] != 0 || r.Assign[9] != 2 {
		t.Fatalf("range assignment wrong: %v", r.Assign)
	}
	// Range parts are contiguous.
	for v := 1; v < 10; v++ {
		if r.Assign[v] < r.Assign[v-1] {
			t.Fatal("range parts must be monotone")
		}
	}
}

func TestHierarchicalComposition(t *testing.T) {
	g := graph.Grid2D(24, 24)
	p, err := Hierarchical(g, []int{4, 4}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 8 {
		t.Fatalf("K=%d want 8", p.K)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	for i, s := range sizes {
		if s == 0 {
			t.Fatalf("hierarchical part %d empty: %v", i, sizes)
		}
	}
}

func TestHierarchicalPrioritizesMachineCut(t *testing.T) {
	g := graph.CommunityGraph(1600, 12, 2, 0.95, 13)
	p, err := Hierarchical(g, []int{4, 4}, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Count machine-crossing vs total cut edges; machine crossing should be a
	// minority of the cut because the top-level split minimizes it first.
	var machineCut, totalCut int64
	for u := 0; u < g.NumVertices(); u++ {
		pu := p.Assign[u]
		for _, v := range g.Neighbors(int32(u)) {
			pv := p.Assign[v]
			if pu == pv {
				continue
			}
			totalCut++
			if (pu < 4) != (pv < 4) {
				machineCut++
			}
		}
	}
	if totalCut == 0 {
		t.Skip("degenerate: no cut at all")
	}
	if float64(machineCut) > 0.8*float64(totalCut) {
		t.Fatalf("machine cut %d should be small fraction of total %d", machineCut, totalCut)
	}
}

func TestHierarchicalErrors(t *testing.T) {
	g := graph.Ring(8)
	if _, err := Hierarchical(g, nil, Options{}); err == nil {
		t.Fatal("no machines should fail")
	}
	if _, err := Hierarchical(g, []int{2, 0}, Options{}); err == nil {
		t.Fatal("zero-GPU machine should fail")
	}
}

func TestHierarchicalSingleMachine(t *testing.T) {
	g := graph.Grid2D(10, 10)
	p, err := Hierarchical(g, []int{4}, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 4 {
		t.Fatalf("K=%d", p.K)
	}
}

func TestMembers(t *testing.T) {
	g := graph.Ring(6)
	p := Range(g, 2)
	mem := p.Members()
	if len(mem) != 2 || len(mem[0]) != 3 || len(mem[1]) != 3 {
		t.Fatalf("members = %v", mem)
	}
	if mem[0][0] != 0 || mem[1][0] != 3 {
		t.Fatalf("members content = %v", mem)
	}
}

func TestEdgeCutMatchesBruteForce(t *testing.T) {
	g := graph.ErdosRenyi(100, 500, 17)
	p := Hash(g, 4)
	var want int64
	for u := 0; u < 100; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if p.Assign[u] != p.Assign[v] {
				want++
			}
		}
	}
	if got := p.EdgeCut(g); got != want {
		t.Fatalf("EdgeCut=%d want %d", got, want)
	}
}

// Property: every KWay result is a valid, reasonably balanced partition
// regardless of graph shape.
func TestPropertyKWayValidBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(300)
		g := graph.ErdosRenyi(n, int64(4*n), seed)
		k := 2 + rng.Intn(6)
		p, err := KWay(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if p.Validate(g) != nil {
			return false
		}
		// With isolated vertices and greedy fallback balance can drift, but
		// should stay below 1.5 on these dense-ish random graphs.
		return p.Balance() < 1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: refinement never leaves the partition invalid and the cut of the
// multilevel partitioner is never worse than 4x the hash baseline.
func TestPropertyKWayCutQuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 8 + rng.Intn(12)
		g := graph.Grid2D(side, side)
		k := 2 + rng.Intn(4)
		p, err := KWay(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		return p.EdgeCut(g) <= Hash(g, k).EdgeCut(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchicalDeterministicAcrossGOMAXPROCS: the machines' sub-partitions
// run concurrently, and the assignment must not depend on how many of them
// actually ran at once.
func TestHierarchicalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := graph.ComOrkut.Generate(512, 3)
	var want []int32
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		p, err := Hierarchical(g, []int{4, 2, 3}, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = p.Assign
		} else if !slices.Equal(p.Assign, want) {
			t.Errorf("GOMAXPROCS=%d: assignment differs from GOMAXPROCS=1", procs)
		}
	}
}

// TestCoarsenAllocs: a coarsening level allocates its handful of arrays and
// nothing per coarse vertex, whatever the size of the level, and no more
// bytes than the sort-based coarsening did (maxBytes, measured with this
// test's seed and runs before the counting reorder replaced it).
func TestCoarsenAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(1))
	fine := fromGraph(graph.ComOrkut.Generate(256, 1))
	scratch := newRowScratch(len(fine.adjncy))
	coarse, _ := fine.coarsen(rng, scratch)
	if coarse == nil {
		t.Fatal("Orkut/256 did not coarsen")
	}
	for level, c := range []struct {
		w        *weightedGraph
		maxBytes uint64
	}{{fine, 5800032}, {coarse, 5335648}} {
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if cw, _ := c.w.coarsen(rng, scratch); cw == nil {
				t.Fatal("level did not coarsen")
			}
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("level %d (%d vertices): %d objects, %d bytes", level, c.w.numVertices(), allocs, bytes)
		if allocs > 12 {
			t.Errorf("level %d (%d vertices): coarsen allocates %d objects, budget 12", level, c.w.numVertices(), allocs)
		}
		if bytes > c.maxBytes {
			t.Errorf("level %d (%d vertices): coarsen allocates %d bytes, budget %d", level, c.w.numVertices(), bytes, c.maxBytes)
		}
	}
}

// BenchmarkCoarsen times one coarsening step from each of the first three
// levels of Com-Orkut at 1/256 and 1/128 (setup-orkut16's graph).
func BenchmarkCoarsen(b *testing.B) {
	for _, scale := range []int{256, 128} {
		levels := []*weightedGraph{fromGraph(graph.ComOrkut.Generate(scale, 1))}
		scratch := newRowScratch(len(levels[0].adjncy))
		rng := rand.New(rand.NewSource(1))
		for len(levels) < 3 {
			cw, _ := levels[len(levels)-1].coarsen(rng, scratch)
			if cw == nil {
				b.Fatalf("Orkut/%d stopped coarsening at level %d", scale, len(levels)-1)
			}
			levels = append(levels, cw)
		}
		for level, w := range levels {
			b.Run(fmt.Sprintf("orkut%d/level%d", scale, level), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if cw, _ := w.coarsen(rng, scratch); cw == nil {
						b.Fatal("level did not coarsen")
					}
				}
			})
		}
	}
}

func BenchmarkKWay8(b *testing.B) {
	g := graph.WebGoogle.Generate(128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(g, 8, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchical16 is the set-up path's partition call on the
// two-machine 16-GPU fabric (dgclperf's setup-orkut16 spec).
func BenchmarkHierarchical16(b *testing.B) {
	g := graph.ComOrkut.Generate(128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hierarchical(g, []int{8, 8}, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
