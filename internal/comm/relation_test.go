package comm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

// fig1Graph reproduces the example graph of Figure 1 (12 vertices a..l) with
// the Figure 1b partitioning to 4 GPUs.
func fig1Graph() (*graph.Graph, *partition.Partition) {
	// a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 l=11
	pairs := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {0, 5}, {0, 9}, // a-b a-c a-d a-f a-j
		{1, 2},         // b-c
		{3, 4}, {3, 5}, // d-e d-f
		{5, 7},         // f-h
		{7, 8}, {7, 6}, // h-i h-g
		{9, 10}, {9, 11}, // j-k j-l
		{10, 11}, // k-l
		{4, 8},   // e-i
	}
	var edges []graph.Edge
	for _, p := range pairs {
		edges = append(edges, graph.Edge{Src: p[0], Dst: p[1]}, graph.Edge{Src: p[1], Dst: p[0]})
	}
	g := graph.MustFromEdges(12, edges, true)
	// GPU1 {a,b,c}, GPU2 {d,e,f}, GPU3 {g,h,i}, GPU4 {j,k,l} (0-based GPUs).
	assign := []int32{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	return g, &partition.Partition{K: 4, Assign: assign}
}

func TestBuildFigure1Example(t *testing.T) {
	g, p := fig1Graph()
	r, err := Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper: V_l_1 = {a,b,c}, V_r_1 = {d,f,j} ∪ whatever else a's
	// neighbors need; the text says {d,f,j,k} — k is not adjacent to GPU 1 in
	// our reading, but d,f,j must be present.
	want := map[int32]bool{3: true, 5: true, 9: true}
	got := map[int32]bool{}
	for _, v := range r.Remote[0] {
		got[v] = true
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("GPU0 remote set %v missing vertex %d", r.Remote[0], v)
		}
	}
	// GPU 2 (0-based 1) owns d and must send d to GPU0 since a-d edge crosses.
	found := false
	for _, v := range r.Send[1][0] {
		if v == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Send[1][0]=%v should contain d(3)", r.Send[1][0])
	}
}

func TestRelationOnRing(t *testing.T) {
	g := graph.Ring(8)
	p := partition.Range(g, 4) // parts {0,1},{2,3},{4,5},{6,7}
	r, err := Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each part needs exactly its two ring neighbors from adjacent parts.
	for d := 0; d < 4; d++ {
		if len(r.Remote[d]) != 2 {
			t.Fatalf("part %d remote=%v want 2 vertices", d, r.Remote[d])
		}
	}
	// Part 0 needs vertex 7 (from part 3) and vertex 2 (from part 1).
	if r.Remote[0][0] != 2 || r.Remote[0][1] != 7 {
		t.Fatalf("part 0 remote = %v", r.Remote[0])
	}
	if r.TotalRemoteVertices() != 8 {
		t.Fatalf("total remote = %d", r.TotalRemoteVertices())
	}
}

func TestClassesGroupCorrectly(t *testing.T) {
	g, p := fig1Graph()
	r, _ := Build(g, p)
	classes := r.Classes()
	totalVertices := 0
	seen := map[int32]bool{}
	for _, c := range classes {
		totalVertices += len(c.Vertices)
		for _, d := range c.Dsts {
			if d == c.Src {
				t.Fatalf("class %+v contains its src in dsts", c)
			}
		}
		for _, v := range c.Vertices {
			if seen[v] {
				t.Fatalf("vertex %d in two classes", v)
			}
			seen[v] = true
			if int(r.Owner[v]) != c.Src {
				t.Fatalf("class src mismatch for %d", v)
			}
		}
	}
	// Every vertex some other GPU needs is in exactly one class.
	consumed := map[int32]bool{}
	for _, rem := range r.Remote {
		for _, v := range rem {
			consumed[v] = true
		}
	}
	if totalVertices != len(consumed) {
		t.Fatalf("classes cover %d vertices, %d have remote consumers", totalVertices, len(consumed))
	}
	// Vertex a(0) is needed by GPU 1 (its neighbours d and f) and GPU 3 (j),
	// so it travels from GPU 0 to {1, 3}.
	for _, c := range classes {
		if slices.Contains(c.Vertices, 0) && (c.Src != 0 || !slices.Equal(c.Dsts, []int{1, 3})) {
			t.Fatalf("class of vertex a = %+v, want src 0 dsts [1 3]", c)
		}
	}
}

// referenceClasses is Classes as a map-based grouping: one destination list
// per vertex through a map, sorted, then a string-keyed map of classes. The
// product code must match it exactly, order included.
func referenceClasses(r *Relation) []Class {
	dsts := make(map[int32][]int)
	for src := 0; src < r.K; src++ {
		for dst := 0; dst < r.K; dst++ {
			for _, v := range r.Send[src][dst] {
				dsts[v] = append(dsts[v], dst)
			}
		}
	}
	vertices := make([]int32, 0, len(dsts))
	for v, ds := range dsts {
		sort.Ints(ds)
		vertices = append(vertices, v)
	}
	slices.Sort(vertices)
	type key struct {
		src  int
		dsts string
	}
	byKey := make(map[key]*Class)
	for _, v := range vertices {
		src, ds := int(r.Owner[v]), dsts[v]
		sig := make([]byte, 0, len(ds)*2)
		for _, d := range ds {
			sig = append(sig, byte(d), byte(d>>8))
		}
		kk := key{src, string(sig)}
		c := byKey[kk]
		if c == nil {
			c = &Class{Src: src, Dsts: ds}
			byKey[kk] = c
		}
		c.Vertices = append(c.Vertices, v)
	}
	out := make([]Class, 0, len(byKey))
	for _, c := range byKey {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return slices.Compare(out[i].Dsts, out[j].Dsts) < 0
	})
	return out
}

// randomRelation draws a relation over k GPUs whose n vertices pick their
// destination set from a small pool (so classes hold many vertices), the
// pool holding prefixes of one another (so the ordering's "a prefix first"
// rule is exercised) and sets as large as all k-1 other GPUs. With anySet,
// a fifth of the vertices draw an arbitrary set instead.
func randomRelation(rng *rand.Rand, n, k int, anySet bool) *Relation {
	r := &Relation{K: k, Owner: make([]int32, n), Send: make([][][]int32, k)}
	for i := range r.Send {
		r.Send[i] = make([][]int32, k)
	}
	pool := make([][]int, 6)
	for i := range pool {
		for d := 0; d < k; d++ {
			if rng.Intn(3) == 0 {
				pool[i] = append(pool[i], d)
			}
		}
	}
	pool = append(pool, pool[0][:len(pool[0])/2], pool[1][:len(pool[1])/3])
	all := make([]int, k)
	for d := range all {
		all[d] = d
	}
	pool = append(pool, all)
	for v := 0; v < n; v++ {
		src := rng.Intn(k)
		r.Owner[v] = int32(src)
		var ds []int
		switch x := rng.Intn(10); {
		case x == 0: // no remote consumer
		case anySet && x < 3:
			ds = rng.Perm(k)[:1+rng.Intn(k)]
			slices.Sort(ds)
		default:
			ds = pool[rng.Intn(len(pool))]
		}
		for _, d := range ds {
			if d != src {
				r.Send[src][d] = append(r.Send[src][d], int32(v))
			}
		}
	}
	return r
}

// TestClassesMatchReference checks Classes against the map-based reference,
// order included, on the Figure 1 relation, on partitioned random graphs,
// and on random relations up to MultiMachineDGX1(9)'s 72 GPUs.
func TestClassesMatchReference(t *testing.T) {
	check := func(name string, r *Relation) {
		t.Helper()
		got, want := r.Classes(), referenceClasses(r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Classes differs from the reference (%d vs %d classes)", name, len(got), len(want))
		}
	}
	g, p := fig1Graph()
	fig1, _ := Build(g, p)
	check("figure1", fig1)
	for seed := int64(1); seed <= 4; seed++ {
		g := graph.RMAT(600, 6000, 0.57, 0.19, 0.19, seed)
		p, err := partition.KWay(g, 2+4*int(seed), partition.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Build(g, p)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("rmat-k%d", p.K), r)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 3, 8, 16, topology.MultiMachineDGX1(9).NumGPUs()} {
		for trial := 0; trial < 3; trial++ {
			check(fmt.Sprintf("random-k%d-%d", k, trial), randomRelation(rng, 2000, k, true))
		}
	}
	check("empty", randomRelation(rng, 0, 4, true))
}

// TestClassesAllocs bounds Classes' allocations by the number of classes,
// not vertices: 20,000 vertices in a few dozen classes must not allocate
// per vertex (a per-vertex destination slice or map entry would).
func TestClassesAllocs(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(7)), 20000, 72, false)
	n := len(r.Classes())
	allocs := testing.AllocsPerRun(5, func() { r.Classes() })
	if allocs > float64(n) {
		t.Fatalf("Classes allocates %.0f times for %d classes of 20000 vertices", allocs, n)
	}
}

func TestLocalGraphs(t *testing.T) {
	g, p := fig1Graph()
	r, _ := Build(g, p)
	lgs := BuildLocalGraphs(g, r)
	if len(lgs) != 4 {
		t.Fatalf("local graphs = %d", len(lgs))
	}
	for d, lg := range lgs {
		if lg.NumLocal != len(r.Local[d]) || lg.NumRemote != len(r.Remote[d]) {
			t.Fatalf("gpu %d local graph sizes wrong", d)
		}
		// Every local edge corresponds to a global edge.
		for li := 0; li < lg.NumLocal; li++ {
			gu := lg.GlobalID[li]
			for _, lv := range lg.G.Neighbors(int32(li)) {
				gv := lg.GlobalID[lv]
				if !g.HasEdge(gu, gv) {
					t.Fatalf("gpu %d local edge (%d,%d) not in global graph", d, gu, gv)
				}
			}
			// Degree preserved: every global neighbor is present locally.
			if lg.G.Degree(int32(li)) != g.Degree(gu) {
				t.Fatalf("gpu %d vertex %d degree %d vs global %d", d, gu, lg.G.Degree(int32(li)), g.Degree(gu))
			}
		}
		// Remote vertices have no outgoing edges in the local graph.
		for ri := lg.NumLocal; ri < lg.NumLocal+lg.NumRemote; ri++ {
			if lg.G.Degree(int32(ri)) != 0 {
				t.Fatalf("gpu %d remote vertex has local out-edges", d)
			}
		}
	}
}

func TestBuildRejectsBadPartition(t *testing.T) {
	g := graph.Ring(4)
	bad := &partition.Partition{K: 2, Assign: []int32{0, 1, 5, 0}}
	if _, err := Build(g, bad); err == nil {
		t.Fatal("expected validation error")
	}
}

// Property: for random graphs and partitions the relation always validates
// and the sum of send volumes equals total remote vertices.
func TestPropertyRelationConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		g := graph.ErdosRenyi(n, int64(5*n), seed)
		k := 2 + rng.Intn(6)
		p, err := partition.KWay(g, k, partition.Options{Seed: seed})
		if err != nil {
			return false
		}
		r, err := Build(g, p)
		if err != nil || r.Validate() != nil {
			return false
		}
		var sendTotal int64
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				sendTotal += int64(len(r.Send[i][j]))
			}
		}
		return sendTotal == r.TotalRemoteVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the local graphs partition all global edges exactly once.
func TestPropertyLocalGraphsCoverEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		g := graph.ErdosRenyi(n, int64(4*n), seed)
		k := 2 + rng.Intn(4)
		p, _ := partition.KWay(g, k, partition.Options{Seed: seed})
		r, err := Build(g, p)
		if err != nil {
			return false
		}
		lgs := BuildLocalGraphs(g, r)
		var total int64
		for _, lg := range lgs {
			total += lg.G.NumEdges()
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildRelation(b *testing.B) {
	g := graph.Reddit.Generate(128, 1)
	p, err := partition.KWay(g, 8, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

// CommVolume (in package partition) and TotalRemoteVertices are
// definitionally the same quantity computed two ways; cross-check here where
// both packages are importable.
func TestCommVolumeMatchesRelation(t *testing.T) {
	g := graph.CommunityGraph(400, 12, 4, 0.8, 5)
	p, err := partition.KWay(g, 8, partition.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := partition.CommVolume(g, p), rel.TotalRemoteVertices(); got != want {
		t.Fatalf("CommVolume=%d, relation says %d", got, want)
	}
}
