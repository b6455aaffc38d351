package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"dgcl/internal/comm"
	"dgcl/internal/topology"
)

// The SPST planner (Algorithm 1). Vertices are processed one at a time (in
// random order); for each vertex a rooted tree over the GPU topology is grown
// greedily: repeatedly run a multi-source shortest-path search from the set
// of GPUs that already hold the vertex to the destinations that do not,
// where the weight of traversing a channel at tree depth i is the marginal
// increase of the total plan cost if the vertex were sent on that channel at
// stage i (Algorithm 2, computed on demand against the accumulated State).
// The cheapest path is committed, its GPUs join the source set, and the loop
// continues until all destinations are covered.

// SPSTOptions tunes the planner.
type SPSTOptions struct {
	// Seed drives the random vertex shuffle (the paper shuffles vertices
	// before planning so that load balancing is not biased by vertex order).
	Seed int64
	// ChunkSize groups this many same-class vertices into one planning unit.
	// 1 reproduces the paper's exact per-vertex planning; larger values trade
	// a little load-balancing granularity for planning speed. Default 16.
	ChunkSize int
	// DisableForwarding restricts every vertex to a direct source->destination
	// transfer (ablation: isolates the value of multi-hop relays; the result
	// is peer-to-peer with the cost model's stage accounting).
	DisableForwarding bool
	// TreePerSource builds one shared tree per source GPU spanning the union
	// of all its destinations, sending every outgoing vertex along the whole
	// tree (ablation: isolates the value of per-vertex strategy flexibility
	// and communication fusion).
	TreePerSource bool
}

func (o SPSTOptions) withDefaults() SPSTOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 16
	}
	return o
}

// Validate rejects option values that would otherwise plan garbage. Zero
// values are legal (they select defaults); negative ones are errors.
func (o SPSTOptions) Validate() error {
	if o.ChunkSize < 0 {
		return fmt.Errorf("core: SPSTOptions.ChunkSize must be >= 0, got %d", o.ChunkSize)
	}
	return nil
}

// planInvocations counts tree-search planner runs (not cache hits); tests and
// the plan cache use it to assert that warm lookups skip planning entirely.
var planInvocations atomic.Int64

// PlanInvocations returns the number of times the SPST tree search has
// actually run in this process. PlanCache hits do not increment it.
func PlanInvocations() int64 { return planInvocations.Load() }

// workItem is one planning unit: a set of same-class vertices routed
// together.
type workItem struct {
	src      int
	dsts     []int
	vertices []int32
}

// PlanSPST runs the SPST algorithm for the relation over the topology and
// returns the plan together with the planner's final cost state (whose
// Cost() is the modeled communication time of the plan).
func PlanSPST(rel *comm.Relation, topo *topology.Topology, bytesPerVertex int64, opts SPSTOptions) (*Plan, *State, error) {
	if topo.NumGPUs() != rel.K {
		return nil, nil, fmt.Errorf("core: topology has %d GPUs, relation %d", topo.NumGPUs(), rel.K)
	}
	if bytesPerVertex < 1 {
		return nil, nil, fmt.Errorf("core: bytesPerVertex must be >= 1, got %d", bytesPerVertex)
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	m, err := NewModel(topo)
	if err != nil {
		return nil, nil, err
	}
	planInvocations.Add(1)
	items := buildWorkItems(rel, opts)
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	pb := newPlanBuilder(rel.K)
	state := planSerial(m, items, bytesPerVertex, opts, pb)
	plan := pb.build(bytesPerVertex, algName(opts))
	return plan, state, nil
}

// planSerial is the paper's one-item-at-a-time loop: every tree search sees
// the fully up-to-date link loads, including earlier edges of its own item.
func planSerial(m *Model, items []workItem, bytesPerVertex int64, opts SPSTOptions, pb *planBuilder) *State {
	state := NewState(m)
	if opts.DisableForwarding {
		for _, it := range items {
			weight := float64(int64(len(it.vertices)) * bytesPerVertex)
			for _, d := range it.dsts {
				state.Add(0, it.src, d, weight)
				pb.add(0, it.src, d, it.vertices)
			}
		}
		return state
	}
	ht := newHopTimes(state)
	sp := newTreeSearch(m.K)
	for _, it := range items {
		ht.setWeight(float64(int64(len(it.vertices)) * bytesPerVertex))
		sp.growTree(ht, it, pb)
	}
	return state
}

func algName(opts SPSTOptions) string {
	switch {
	case opts.DisableForwarding:
		return "spst-noforward"
	case opts.TreePerSource:
		return "spst-sourcetree"
	default:
		return "spst"
	}
}

// buildWorkItems expands the relation's vertex classes into planning units.
func buildWorkItems(rel *comm.Relation, opts SPSTOptions) []workItem {
	classes := rel.Classes()
	if opts.TreePerSource {
		// Merge classes by source: one item per source GPU, destinations are
		// the union, carrying all outgoing vertices.
		bySrc := make(map[int]*workItem)
		for _, c := range classes {
			it := bySrc[c.Src]
			if it == nil {
				it = &workItem{src: c.Src}
				bySrc[c.Src] = it
			}
			it.vertices = append(it.vertices, c.Vertices...)
			for _, d := range c.Dsts {
				found := false
				for _, e := range it.dsts {
					if e == d {
						found = true
						break
					}
				}
				if !found {
					it.dsts = append(it.dsts, d)
				}
			}
		}
		items := make([]workItem, 0, len(bySrc))
		for src := 0; src < rel.K; src++ {
			if it := bySrc[src]; it != nil {
				items = append(items, *it)
			}
		}
		return items
	}
	var items []workItem
	for _, c := range classes {
		for off := 0; off < len(c.Vertices); off += opts.ChunkSize {
			end := off + opts.ChunkSize
			if end > len(c.Vertices) {
				end = len(c.Vertices)
			}
			items = append(items, workItem{src: c.Src, dsts: c.Dsts, vertices: c.Vertices[off:end]})
		}
	}
	return items
}

// treeSearch holds the scratch arrays for the per-item tree construction so
// planning does not allocate per vertex.
type treeSearch struct {
	k       int
	inTree  []bool // GPU already holds the item
	depth   []int  // tree depth of in-tree GPUs
	needed  []bool // destination not yet reached
	dist    []float64
	pdepth  []int // path depth during Dijkstra
	parent  []int
	settled []bool
	path    []int // leaf..root nodes of the path being committed
}

func newTreeSearch(k int) *treeSearch {
	return &treeSearch{
		k:      k,
		inTree: make([]bool, k), depth: make([]int, k), needed: make([]bool, k),
		dist: make([]float64, k), pdepth: make([]int, k), parent: make([]int, k),
		settled: make([]bool, k),
	}
}

// growTree implements the inner loop of Algorithm 1 for one work item,
// committing volumes to the state behind ht and transfers to pb.
func (ts *treeSearch) growTree(ht *hopTimes, it workItem, pb *planBuilder) {
	k := ts.k
	for i := 0; i < k; i++ {
		ts.inTree[i] = false
		ts.needed[i] = false
	}
	ts.inTree[it.src] = true
	ts.depth[it.src] = 0
	remaining := 0
	for _, d := range it.dsts {
		if !ts.inTree[d] {
			ts.needed[d] = true
			remaining++
		}
	}
	for remaining > 0 {
		dest := ts.dijkstra(ht)
		if dest < 0 {
			// Unreachable destination: fall back to a direct stage-1 send so
			// the plan stays executable (should not happen on connected
			// fabrics).
			for d := 0; d < k; d++ {
				if ts.needed[d] {
					ht.add(0, it.src, d)
					pb.add(0, it.src, d, it.vertices)
					ts.needed[d] = false
					remaining--
				}
			}
			return
		}
		// Walk the path root-ward, collecting edges, then commit them in
		// root-to-leaf order.
		path := ts.path[:0]
		for n := dest; ; n = ts.parent[n] {
			path = append(path, n)
			if ts.inTree[n] {
				break
			}
		}
		ts.path = path
		for i := len(path) - 1; i > 0; i-- {
			u, v := path[i], path[i-1]
			stage := ts.depth[u] // edge u->v runs at stage depth(u)+1, index depth(u)
			ht.add(stage, u, v)
			pb.add(stage, u, v, it.vertices)
			ts.inTree[v] = true
			ts.depth[v] = ts.depth[u] + 1
			if ts.needed[v] {
				ts.needed[v] = false
				remaining--
			}
		}
	}
}

// dijkstra runs the multi-source shortest-path search of Algorithm 1 line 7:
// sources are all in-tree GPUs (distance 0 at their tree depth); edge weight
// for hopping u->v at path depth d is the marginal cost of sending the item
// on channel (u,v) at stage d. It returns the first settled needed
// destination (the globally cheapest one, lowest index on ties), or -1 if
// none is reachable.
func (ts *treeSearch) dijkstra(ht *hopTimes) int {
	k := ts.k
	for i := 0; i < k; i++ {
		ts.dist[i] = math.Inf(1)
		ts.settled[i] = false
		ts.parent[i] = -1
		if ts.inTree[i] {
			ts.dist[i] = 0
			ts.pdepth[i] = ts.depth[i]
		}
	}
	for {
		u, du := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if d := ts.dist[i]; d < du && !ts.settled[i] {
				u, du = i, d
				if d == 0 {
					break // marginals are >= 0: nothing later can be lower
				}
			}
		}
		if u < 0 {
			return -1
		}
		ts.settled[u] = true
		if ts.needed[u] {
			return u
		}
		row, stageMax := ht.at(ts.pdepth[u])
		depth := ts.pdepth[u] + 1
		chans := ht.s.m.hops[u*k : u*k+k]
		for v, hops := range chans {
			// Marginal costs are >= 0, so every settled or in-tree node (u
			// included) is at dist <= dist[u], and no node there can be
			// improved from u: skip the cost query entirely.
			if ts.dist[v] <= du {
				continue
			}
			if nd := du + marginal(row, stageMax, hops); nd < ts.dist[v] {
				ts.dist[v] = nd
				ts.pdepth[v] = depth
				ts.parent[v] = u
			}
		}
	}
}
