package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Generators for synthetic graphs. These stand in for the paper's datasets
// (Table 4): the communication behaviour that drives the evaluation depends
// on cut structure and degree skew, which the generators reproduce, not on
// the exact edge identities of the original crawls.

// RMAT generates a scale-free directed graph with n vertices (rounded up to a
// power of two internally, then trimmed) and m edges using the recursive
// matrix method with parameters a,b,c (d = 1-a-b-c). Typical Kronecker
// parameters a=0.57,b=0.19,c=0.19 give a power-law degree distribution like
// web and interaction graphs.
func RMAT(n int, m int64, a, b, c float64, seed int64) *Graph {
	if a+b+c >= 1 || a <= 0 || b < 0 || c < 0 {
		panic(fmt.Sprintf("graph: bad RMAT parameters a=%v b=%v c=%v", a, b, c))
	}
	levels := 0
	for (1 << levels) < n {
		levels++
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for int64(len(edges)) < m {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: no bits set
			case r < a+b:
				v |= 1 << l
			case r < a+b+c:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		edges = append(edges, Edge{int32(u), int32(v)})
	}
	return MustFromEdges(n, edges, true)
}

// CommunityGraph generates a dense undirected community-structured graph:
// vertices are grouped into communities of geometrically distributed size and
// most edges are intra-community, like the paper's Reddit (posts linked via
// shared commenters) and Com-Orkut (friendship) graphs. avgDeg controls edge
// volume; pIntra is the fraction of edges that stay within a community.
func CommunityGraph(n int, avgDeg float64, numCommunities int, pIntra float64, seed int64) *Graph {
	if numCommunities < 1 {
		numCommunities = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Assign vertices to communities with skewed (Zipf-ish) sizes.
	comm := make([]int32, n)
	weights := make([]float64, numCommunities)
	var total float64
	for i := range weights {
		weights[i] = 1.0 / float64(i+1)
		total += weights[i]
	}
	// Cumulative distribution for community pick.
	cum := make([]float64, numCommunities)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	members := make([][]int32, numCommunities)
	for v := 0; v < n; v++ {
		r := rng.Float64()
		c := 0
		for c < numCommunities-1 && cum[c] < r {
			c++
		}
		comm[v] = int32(c)
		members[c] = append(members[c], int32(v))
	}
	m := int64(float64(n) * avgDeg / 2) // undirected edge pairs
	edges := make([]Edge, 0, 2*m)
	for int64(len(edges)) < 2*m {
		u := int32(rng.Intn(n))
		var v int32
		if rng.Float64() < pIntra {
			mem := members[comm[u]]
			if len(mem) < 2 {
				continue
			}
			v = mem[rng.Intn(len(mem))]
		} else {
			v = int32(rng.Intn(n))
		}
		if u == v {
			continue
		}
		edges = append(edges, Edge{u, v}, Edge{v, u})
	}
	return MustFromEdges(n, edges, true)
}

// LocalityGraph generates a sparse undirected graph with strong locality and
// power-law degrees, like web graphs: vertices sit on a ring and each vertex
// draws its neighbors at Pareto-distributed ring distances, so most edges
// are short-range (small METIS cut, bounded k-hop growth) with a heavy tail
// of long-range links.
func LocalityGraph(n int, avgDeg float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	deg := zipfDegrees(n, avgDeg/2, 2.1, rng)
	// 20% of links are uniform long-range (cross-site hyperlinks); the rest
	// follow a Pareto ring distance (within-site locality).
	const qUniform = 0.2
	edges := make([]Edge, 0, int(float64(n)*avgDeg))
	for u := 0; u < n; u++ {
		for i := 0; i < deg[u]; i++ {
			var v int
			if rng.Float64() < qUniform {
				v = rng.Intn(n)
			} else {
				d := int(math.Pow(1-rng.Float64(), -1/1.3))
				if d >= n/2 {
					d = n / 2
				}
				if d < 1 {
					d = 1
				}
				v = u + d
				if rng.Intn(2) == 0 {
					v = u - d
				}
				v = ((v % n) + n) % n
			}
			if v == u {
				continue
			}
			edges = append(edges, Edge{int32(u), int32(v)}, Edge{int32(v), int32(u)})
		}
	}
	return MustFromEdges(n, edges, true)
}

// SuperlinearPA generates an undirected graph by superlinear preferential
// attachment: each new vertex attaches to the higher-degree of two
// degree-proportional samples, which condenses attachment onto a few
// Θ(n)-degree hubs — the structure of interaction graphs like Wiki-Talk,
// where a handful of admins/bots touch a constant fraction of all users and
// the 2-hop neighborhood of any sizable vertex set covers most of the graph.
func SuperlinearPA(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]int32, 0, 2*n)
	degree := make([]int, n)
	edges := make([]Edge, 0, 2*n)
	addEdge := func(u, v int32) {
		edges = append(edges, Edge{u, v}, Edge{v, u})
		pool = append(pool, u, v)
		degree[u]++
		degree[v]++
	}
	addEdge(1, 0)
	for v := 2; v < n; v++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		t := a
		if degree[b] > degree[a] {
			t = b
		}
		if int(t) == v {
			t = int32(rng.Intn(v))
		}
		addEdge(int32(v), t)
	}
	return MustFromEdges(n, edges, true)
}

// PreferentialAttachment generates a Barabási–Albert style undirected graph
// where each new vertex attaches to k existing vertices chosen proportionally
// to degree. Produces heavy-tailed sparse graphs like Wiki-Talk.
func PreferentialAttachment(n, k int, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	rng := rand.New(rand.NewSource(seed))
	// targetsPool holds one entry per edge endpoint; sampling uniformly from
	// it is sampling proportional to degree.
	pool := make([]int32, 0, 2*n*k)
	edges := make([]Edge, 0, 2*n*k)
	for v := 1; v <= k; v++ {
		edges = append(edges, Edge{int32(v), 0}, Edge{0, int32(v)})
		pool = append(pool, int32(v), 0)
	}
	for v := k + 1; v < n; v++ {
		chosen := make(map[int32]bool, k)
		for len(chosen) < k {
			var t int32
			if rng.Float64() < 0.9 {
				t = pool[rng.Intn(len(pool))]
			} else {
				t = int32(rng.Intn(v))
			}
			if int(t) != v {
				chosen[t] = true
			}
		}
		// Iterate the chosen targets in sorted order: the pool's element
		// order feeds the degree-proportional sampling above, so map
		// iteration order would make the seeded generator nondeterministic
		// across runs.
		targets := make([]int32, 0, len(chosen))
		for t := range chosen {
			targets = append(targets, t)
		}
		slices.Sort(targets)
		for _, t := range targets {
			edges = append(edges, Edge{int32(v), t}, Edge{t, int32(v)})
			pool = append(pool, int32(v), t)
		}
	}
	return MustFromEdges(n, edges, true)
}

// Grid2D generates an r×c grid graph (each vertex connected to its 4
// neighbors), useful for tests with predictable structure.
func Grid2D(r, c int) *Graph {
	var edges []Edge
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				edges = append(edges, Edge{id(i, j), id(i+1, j)}, Edge{id(i+1, j), id(i, j)})
			}
			if j+1 < c {
				edges = append(edges, Edge{id(i, j), id(i, j+1)}, Edge{id(i, j+1), id(i, j)})
			}
		}
	}
	return MustFromEdges(r*c, edges, true)
}

// Ring generates a cycle of n vertices (undirected), minimal connected test
// structure.
func Ring(n int) *Graph {
	edges := make([]Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		edges = append(edges, Edge{int32(i), int32(j)}, Edge{int32(j), int32(i)})
	}
	return MustFromEdges(n, edges, true)
}

// ErdosRenyi generates a G(n, m) random directed graph.
func ErdosRenyi(n int, m int64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for int64(len(edges)) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	return MustFromEdges(n, edges, true)
}

// zipfDegrees draws n degrees following a truncated power law with the given
// exponent and mean approximately avg.
func zipfDegrees(n int, avg float64, exponent float64, rng *rand.Rand) []int {
	deg := make([]int, n)
	var sum float64
	for i := range deg {
		u := rng.Float64()
		// Inverse-CDF sampling of a Pareto distribution, truncated.
		d := math.Pow(1-u, -1/(exponent-1))
		if d > float64(n)/4 {
			d = float64(n) / 4
		}
		deg[i] = int(d)
		sum += d
	}
	scale := avg * float64(n) / sum
	for i := range deg {
		deg[i] = int(float64(deg[i])*scale + 0.5)
		if deg[i] < 1 {
			deg[i] = 1
		}
	}
	return deg
}

// ChungLu generates an undirected graph whose expected degree sequence
// follows a truncated power law with the given average degree; used for
// web-like graphs.
func ChungLu(n int, avgDeg float64, exponent float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	deg := zipfDegrees(n, avgDeg, exponent, rng)
	// Endpoint pool proportional to desired degree.
	var pool []int32
	for v, d := range deg {
		for i := 0; i < d; i++ {
			pool = append(pool, int32(v))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	edges := make([]Edge, 0, len(pool))
	for i := 0; i+1 < len(pool); i += 2 {
		u, v := pool[i], pool[i+1]
		if u != v {
			edges = append(edges, Edge{u, v}, Edge{v, u})
		}
	}
	return MustFromEdges(n, edges, true)
}
