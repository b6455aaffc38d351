package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}}, false)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices=%d want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges=%d want 4", g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors(0)=%v want [1 2]", got)
	}
	if g.Degree(3) != 1 || g.Degree(2) != 0 {
		t.Fatalf("unexpected degrees: deg(3)=%d deg(2)=%d", g.Degree(3), g.Degree(2))
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 0) {
		t.Fatal("HasEdge gave wrong answers")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}, false); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := FromEdges(-1, nil, false); err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestDedup(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {0, 1}, {0, 2}, {0, 1}}, true)
	if got := g.Neighbors(0); len(got) != 2 {
		t.Fatalf("dedup failed: neighbors=%v", got)
	}
}

func TestSymmetrize(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}}, false)
	s := g.Symmetrize()
	if !s.IsSymmetric() {
		t.Fatal("Symmetrize result not symmetric")
	}
	if !s.HasEdge(1, 0) || !s.HasEdge(2, 1) {
		t.Fatal("Symmetrize missing reverse edges")
	}
}

func TestKHopNeighborhood(t *testing.T) {
	// Path graph 0-1-2-3-4.
	g := Ring(5)
	got := g.KHopNeighborhood([]int32{0}, 1, false)
	if len(got) != 2 {
		t.Fatalf("1-hop of ring vertex: %v", got)
	}
	got = g.KHopNeighborhood([]int32{0}, 2, true)
	if len(got) != 5 {
		t.Fatalf("2-hop incl seeds on 5-ring should cover all: %v", got)
	}
	got = g.KHopNeighborhood([]int32{0}, 0, false)
	if len(got) != 0 {
		t.Fatalf("0-hop excluding seeds should be empty: %v", got)
	}
}

// connectedComponents returns, for the undirected interpretation of g, a
// component id per vertex and the number of components: the generator
// sanity checks below ask whether a graph is in one piece. A directed g
// is walked along its edges and their reverses.
func connectedComponents(g *Graph) ([]int32, int) {
	n := g.NumVertices()
	rev := make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			rev[v] = append(rev[v], int32(u))
		}
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var id int32
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = id
		for stack := []int32{int32(s)}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nbrs := range [][]int32{g.Neighbors(u), rev[u]} {
				for _, v := range nbrs {
					if comp[v] < 0 {
						comp[v] = id
						stack = append(stack, v)
					}
				}
			}
		}
		id++
	}
	return comp, int(id)
}

func TestConnectedComponents(t *testing.T) {
	// Two disjoint triangles.
	g := MustFromEdges(6, []Edge{
		{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2},
		{3, 4}, {4, 3}, {4, 5}, {5, 4}, {5, 3}, {3, 5},
	}, false)
	comp, n := connectedComponents(g)
	if n != 2 {
		t.Fatalf("components=%d want 2", n)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("bad component assignment %v", comp)
	}
}

func TestConnectedComponentsDirected(t *testing.T) {
	// Directed chain 0->1->2 is one weakly connected component.
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}}, false)
	_, n := connectedComponents(g)
	if n != 1 {
		t.Fatalf("weakly connected components=%d want 1", n)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Grid2D(3, 3)
	sub, orig := g.InducedSubgraph([]int32{0, 1, 3, 4})
	if sub.NumVertices() != 4 {
		t.Fatalf("NumVertices=%d", sub.NumVertices())
	}
	if len(orig) != 4 || orig[0] != 0 || orig[3] != 4 {
		t.Fatalf("orig mapping wrong: %v", orig)
	}
	// 0-1, 0-3, 1-4, 3-4 edges should survive, each in both directions.
	if sub.NumEdges() != 8 {
		t.Fatalf("NumEdges=%d want 8", sub.NumEdges())
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(2, 3)
	if g.NumVertices() != 6 {
		t.Fatalf("vertices=%d", g.NumVertices())
	}
	// interior horizontal/vertical counts: edges = 2*(r*(c-1)+c*(r-1))
	if g.NumEdges() != int64(2*(2*2+3*1)) {
		t.Fatalf("edges=%d", g.NumEdges())
	}
	if !g.IsSymmetric() {
		t.Fatal("grid should be symmetric")
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(10)
	for u := 0; u < 10; u++ {
		if g.Degree(int32(u)) != 2 {
			t.Fatalf("ring degree of %d is %d", u, g.Degree(int32(u)))
		}
	}
	_, n := connectedComponents(g)
	if n != 1 {
		t.Fatalf("ring components=%d", n)
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(1024, 8192, 0.57, 0.19, 0.19, 42)
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices=%d", g.NumVertices())
	}
	if g.NumEdges() < 4000 {
		t.Fatalf("RMAT produced too few edges after dedup: %d", g.NumEdges())
	}
	stats := g.ComputeStats()
	if stats.MaxDegree < 3*int(stats.AvgDegree) {
		t.Fatalf("RMAT should be skewed: max=%d avg=%f", stats.MaxDegree, stats.AvgDegree)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(256, 1024, 0.57, 0.19, 0.19, 7)
	b := RMAT(256, 1024, 0.57, 0.19, 0.19, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	for u := 0; u < 256; u++ {
		an, bn := a.Neighbors(int32(u)), b.Neighbors(int32(u))
		if len(an) != len(bn) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestCommunityGraphSymmetricAndClustered(t *testing.T) {
	g := CommunityGraph(2000, 20, 10, 0.9, 1)
	if !g.IsSymmetric() {
		t.Fatal("community graph must be symmetric")
	}
	got := g.AvgDegree()
	if got < 10 || got > 30 {
		t.Fatalf("avg degree %f far from requested 20", got)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(2000, 2, 3)
	if !g.IsSymmetric() {
		t.Fatal("PA graph must be symmetric")
	}
	_, n := connectedComponents(g)
	if n != 1 {
		t.Fatalf("PA graph should be connected, got %d components", n)
	}
	s := g.ComputeStats()
	if s.MaxDegree < 20 {
		t.Fatalf("PA graph should have hubs, max degree %d", s.MaxDegree)
	}
}

func TestChungLuDegrees(t *testing.T) {
	g := ChungLu(5000, 6, 2.2, 11)
	got := g.AvgDegree()
	if got < 2 || got > 14 {
		t.Fatalf("ChungLu avg degree %f far from 6", got)
	}
	if !g.IsSymmetric() {
		t.Fatal("ChungLu must be symmetric")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(500, 2500, 5)
	if g.NumVertices() != 500 {
		t.Fatalf("vertices=%d", g.NumVertices())
	}
	if g.NumEdges() < 2000 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
}

func TestDatasetGenerateScaled(t *testing.T) {
	for _, d := range AllDatasets {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g := d.Generate(256, 99)
			n := g.NumVertices()
			if n < 64 {
				t.Fatalf("%s too small: %d", d.Name, n)
			}
			avg := g.AvgDegree()
			// Degree should be within a factor ~3 of the target for dense
			// graphs; sparse generators have min-degree floors at tiny scale.
			if d.Dense && (avg < d.AvgDegree/3 || avg > d.AvgDegree*3) {
				t.Fatalf("%s avg degree %f target %f", d.Name, avg, d.AvgDegree)
			}
		})
	}
}

func TestDatasetByName(t *testing.T) {
	d, err := DatasetByName("Reddit")
	if err != nil || d.Name != "Reddit" {
		t.Fatalf("DatasetByName(Reddit) = %v, %v", d, err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a := Reddit.Generate(512, 3)
	b := Reddit.Generate(512, 3)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("dataset generation must be deterministic")
	}
}

// Property: FromEdges + Neighbors round-trips every edge.
func TestPropertyFromEdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		m := rng.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := MustFromEdges(n, edges, false)
		if g.NumEdges() != int64(m) {
			return false
		}
		for _, e := range edges {
			if !g.HasEdge(e.Src, e.Dst) {
				return false
			}
		}
		// Total degree equals edge count.
		var total int
		for u := 0; u < n; u++ {
			total += g.Degree(int32(u))
		}
		return total == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the linear IsSymmetric agrees with the per-edge HasEdge
// definition on multigraphs with self loops — symmetric ones, symmetric ones
// with one direction of an edge removed, and arbitrary directed ones.
func TestPropertyIsSymmetricMatchesHasEdge(t *testing.T) {
	bruteForce := func(g *Graph) bool {
		for u := 0; u < g.NumVertices(); u++ {
			for _, v := range g.Neighbors(int32(u)) {
				if !g.HasEdge(v, int32(u)) {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		var edges []Edge
		for i, m := 0, rng.Intn(120); i < m; i++ {
			e := Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
			edges = append(edges, e)
			if seed%3 != 0 { // two thirds of the cases start symmetric
				edges = append(edges, Edge{e.Dst, e.Src})
			}
			if rng.Intn(4) == 0 {
				edges = append(edges, e) // duplicate in one direction only
			}
		}
		if seed%3 == 1 && len(edges) > 0 {
			// Drop every copy of one direction of one edge.
			drop := edges[rng.Intn(len(edges))]
			kept := edges[:0]
			for _, e := range edges {
				if e != drop {
					kept = append(kept, e)
				}
			}
			edges = kept
		}
		g := MustFromEdges(n, edges, false)
		return g.IsSymmetric() == bruteForce(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: KHopNeighborhood is monotone in k.
func TestPropertyKHopMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := ErdosRenyi(n, int64(3*n), seed)
		seed0 := int32(rng.Intn(n))
		prev := 0
		for k := 0; k <= 3; k++ {
			got := len(g.KHopNeighborhood([]int32{seed0}, k, true))
			if got < prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFromEdges(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	edges := make([]Edge, 100000)
	for i := range edges {
		edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustFromEdges(n, edges, false)
	}
}

func BenchmarkKHop(b *testing.B) {
	g := WebGoogle.Generate(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KHopNeighborhood([]int32{int32(i % g.NumVertices())}, 2, true)
	}
}
