package core

import (
	"math"
	"sync"
)

// Parallel batched SPST planning.
//
// The serial planner routes one work item at a time against a single mutable
// State, so nothing can run concurrently: every tree search must see the
// previous item's commits. planWaves processes the (already shuffled) work
// items in waves of Workers*BatchSize items:
//
//   - At the start of a wave the accumulated link loads are frozen. Each
//     worker plans its batch of BatchSize items against that snapshot PLUS
//     its own local load overlay, so within a batch the search semantics are
//     exactly serial (branches of one tree and consecutive items of one
//     batch see each other's contention). What a worker cannot see is the
//     load added concurrently by the other workers of the wave — staleness
//     is bounded by one wave, because every wave commits all load deltas (in
//     deterministic item order) before the next begins.
//   - The frozen base lets a worker keep per-hop contended *times* instead of
//     byte volumes (cachedCost): marginal-cost queries become an add and a
//     compare per hop with no division, and commits bump only the touched
//     slots. The serial planner's hop-time table (hopTimes, cost.go) does
//     the same with one load per hop and divides where this multiplies.
//   - Workers never write shared data during a wave, so for a fixed
//     (Seed, ChunkSize, Workers, BatchSize) the plan is deterministic
//     regardless of goroutine scheduling.
//
// Workers=1 with BatchSize=1 takes the planSerial path in PlanSPST and
// reproduces the serial plans bit-for-bit. Workers=1 with a larger BatchSize
// is "batched serial": the same routing decisions as the serial planner up
// to floating-point tie-breaks (the overlay multiplies by precomputed
// reciprocal bandwidths where the serial path divides).

// edgeOp is one committed tree edge: the item's vertices travel src->dst at
// the given stage.
type edgeOp struct {
	stage, src, dst int32
}

// cachedCost is a worker's view of the link loads: the wave's frozen base
// State plus the load the worker itself committed this wave.
//
// Instead of byte volumes it tracks *times*: curTime[stage][hopSlot] is the
// hop's contended transfer time, (baseVol+localVol)/bandwidth, kept valid in
// place (adds bump only the touched slots by a precomputed weight/bandwidth
// delta). A marginal-cost query is then two loads, an add and a compare per
// hop, with no division. Unlike the serial hopTimes it must add the item's
// own weight per query: its times carry the loadScale-inflated local load,
// which the query prices at the unscaled weight.
type cachedCost struct {
	m      *Model
	base   *State // frozen for the duration of a wave; read-only
	weight float64
	// loadScale inflates the worker's own committed load: the wave's items are
	// a shuffled sample split evenly across workers, so a worker's own load is
	// an unbiased 1/Workers estimate of the load the whole wave is placing on
	// each link. Scaling it makes the worker steer around contention the other
	// workers are creating concurrently, which a frozen snapshot cannot show
	// (and, within one item, spreads the tree the way the peers' contention
	// eventually would). The scale is Workers/2, not Workers: the full count
	// double-prices the worker's own share of the wave and herds all workers
	// off shared links at once — half the count measured best across both the
	// evaluation-scale graphs and the small adversarial battery. Queries still
	// price the candidate edge at the item's own weight.
	loadScale float64
	wInv      []float64   // weight / bandwidth per hop slot; rebuilt per item
	addInv    []float64   // loadScale * weight / bandwidth per hop slot
	curTime   [][]float64 // per stage: contended time per hop slot
	stageMax  []float64   // per stage: current stage time
}

func newCachedCost(m *Model, loadScale float64) *cachedCost {
	return &cachedCost{
		m:         m,
		loadScale: loadScale,
		wInv:      make([]float64, len(m.bw)),
		addInv:    make([]float64, len(m.bw)),
	}
}

// reset points the view at a new frozen base and drops the local overlay,
// re-deriving the per-hop times from the base volumes (O(stages·hops), dwarfed
// by planning a single item).
func (c *cachedCost) reset(base *State) {
	c.base = base
	c.stageMax = c.stageMax[:0]
	c.curTime = c.curTime[:0]
	for s := 0; s < base.NumStages(); s++ {
		c.grow()
		ct := c.curTime[s]
		bvol := base.stageVol[s]
		for i := range ct {
			ct[i] = bvol[i] * c.m.invBW[i]
		}
		c.stageMax[s] = base.stageMax[s]
	}
}

// setWeight switches the per-vertex-chunk weight the queries price in,
// refreshing the per-slot weight/bandwidth deltas.
func (c *cachedCost) setWeight(weight float64) {
	if c.weight == weight {
		return
	}
	c.weight = weight
	for i, inv := range c.m.invBW {
		c.wInv[i] = weight * inv
		c.addInv[i] = c.loadScale * weight * inv
	}
}

// grow appends one (zeroed) stage to the view.
func (c *cachedCost) grow() {
	s := len(c.stageMax)
	c.stageMax = append(c.stageMax, 0)
	if s < cap(c.curTime) {
		c.curTime = c.curTime[:s+1]
		if ct := c.curTime[s]; ct != nil {
			for i := range ct {
				ct[i] = 0
			}
			return
		}
		c.curTime[s] = make([]float64, len(c.m.bw))
	} else {
		c.curTime = append(c.curTime, make([]float64, len(c.m.bw)))
	}
}

// incremental is the marginal cost of the item on channel src->dst at the
// stage, against the combined base+local view.
func (c *cachedCost) incremental(stage, src, dst int) float64 {
	if stage >= len(c.stageMax) {
		// Untouched empty stage: no contention, the bottleneck hop decides.
		return c.weight * c.m.invBottleneck[src][dst]
	}
	var hm float64
	ct := c.curTime[stage]
	for _, h := range c.m.hops[src*c.m.K+dst] {
		if t := ct[h] + c.wInv[h]; t > hm {
			hm = t
		}
	}
	if sm := c.stageMax[stage]; hm > sm {
		return hm - sm
	}
	return 0
}

// add commits the current weight on channel src->dst at the stage to the
// local overlay.
func (c *cachedCost) add(stage, src, dst int) {
	for len(c.stageMax) <= stage {
		c.grow()
	}
	ct := c.curTime[stage]
	sm := c.stageMax[stage]
	for _, h := range c.m.hops[src*c.m.K+dst] {
		ct[h] += c.addInv[h]
		if ct[h] > sm {
			sm = ct[h]
		}
	}
	c.stageMax[stage] = sm
}

// waveWorker plans one batch per wave. The edge arena and item offsets are
// reused across waves; committed slices point into (possibly superseded)
// arena backing arrays, which stay valid because they are never appended to.
type waveWorker struct {
	ts     *treeSearch
	cc     *cachedCost
	arena  []edgeOp
	starts []int32 // per planned item, start offset into arena
}

// plan plans the worker's own batch, wave[lo:hi), against the frozen base.
func (w *waveWorker) plan(wave []workItem, lo, hi int, bytesPerVertex int64, base *State) {
	w.arena = w.arena[:0]
	w.starts = w.starts[:0]
	w.cc.reset(base)
	for i := lo; i < hi; i++ {
		it := &wave[i]
		w.starts = append(w.starts, int32(len(w.arena)))
		w.cc.setWeight(float64(int64(len(it.vertices)) * bytesPerVertex))
		w.arena = w.ts.growTreeWave(w.cc, it, w.arena)
	}
	w.starts = append(w.starts, int32(len(w.arena)))
}

// edges returns the tree committed for the i-th item of the worker's batch.
func (w *waveWorker) edges(i int) []edgeOp {
	return w.arena[w.starts[i]:w.starts[i+1]]
}

// planWaves is the batched planner driver; see the comment at the top of the
// file for the staleness model.
func planWaves(m *Model, items []workItem, bytesPerVertex int64, opts SPSTOptions, pb *planBuilder) *State {
	state := NewState(m)
	batch := opts.BatchSize
	waveSize := opts.Workers * batch
	loadScale := 1.0
	if opts.Workers > 1 {
		loadScale = float64(opts.Workers) / 2
	}
	workers := make([]*waveWorker, opts.Workers)
	for i := range workers {
		workers[i] = &waveWorker{ts: newTreeSearch(m.K), cc: newCachedCost(m, loadScale)}
	}
	for base := 0; base < len(items); base += waveSize {
		end := base + waveSize
		if end > len(items) {
			end = len(items)
		}
		// Shard the wave into per-worker batches and plan them against the
		// frozen state.
		active := 0
		var wg sync.WaitGroup
		for wi := 0; wi < opts.Workers; wi++ {
			lo := base + wi*batch
			if lo >= end {
				break
			}
			hi := lo + batch
			if hi > end {
				hi = end
			}
			active++
			if wi == opts.Workers-1 || hi == end {
				// Plan the last shard on this goroutine.
				workers[wi].plan(items[base:end], lo-base, hi-base, bytesPerVertex, state)
				break
			}
			wg.Add(1)
			go func(w *waveWorker, lo, hi int) {
				defer wg.Done()
				w.plan(items[base:end], lo, hi, bytesPerVertex, state)
			}(workers[wi], lo-base, hi-base)
		}
		wg.Wait()
		// Commit the wave's load deltas and transfers in item order, so the
		// result is independent of how goroutines were scheduled.
		for wi := 0; wi < active; wi++ {
			w := workers[wi]
			lo := base + wi*batch
			for i := 0; i < len(w.starts)-1; i++ {
				it := &items[lo+i]
				weight := float64(int64(len(it.vertices)) * bytesPerVertex)
				for _, e := range w.edges(i) {
					state.Add(int(e.stage), int(e.src), int(e.dst), weight)
					pb.add(int(e.stage), int(e.src), int(e.dst), it.vertices)
				}
			}
		}
	}
	return state
}

// growTreeWave is growTree against a worker's cached cost view: edge weights
// come from memoized queries, commits go to the local overlay, and the tree
// is recorded for replay onto the shared state at wave commit.
func (ts *treeSearch) growTreeWave(cc *cachedCost, it *workItem, out []edgeOp) []edgeOp {
	k := ts.k
	for i := 0; i < k; i++ {
		ts.inTree[i] = false
		ts.needed[i] = false
	}
	ts.inTree[it.src] = true
	ts.depth[it.src] = 0
	path := ts.parent[:0:0] // scratch; reallocated on first use, then reused
	remaining := 0
	for _, d := range it.dsts {
		if !ts.inTree[d] {
			ts.needed[d] = true
			remaining++
		}
	}
	for remaining > 0 {
		dest := ts.dijkstraWave(cc)
		if dest < 0 {
			for d := 0; d < k; d++ {
				if ts.needed[d] {
					cc.add(0, it.src, d)
					out = append(out, edgeOp{0, int32(it.src), int32(d)})
					ts.needed[d] = false
					remaining--
				}
			}
			return out
		}
		path = path[:0]
		for n := dest; ; n = ts.parent[n] {
			path = append(path, n)
			if ts.inTree[n] {
				break
			}
		}
		out = ts.commitPathWave(cc, path, out, &remaining)
		// Zero-sweep: a remaining destination reachable by a zero-marginal
		// direct edge from a tree node can be committed without re-running the
		// search — zero is the global minimum, so the edge is a valid greedy
		// choice, and it is the edge a fresh search would settle (free direct
		// edges win before any relayed path is explored). Shallow tree nodes
		// are preferred so the sweep does not stretch the stage count. This
		// collapses the one-search-per-destination loop whenever a stage's
		// maximum dwarfs the item's marginal, the common case on loaded
		// fabrics.
		for remaining > 0 {
			committed := false
			for d := 0; d < k && remaining > 0; d++ {
				if !ts.needed[d] || ts.dist[d] != 0 {
					continue
				}
				from, fromDepth := -1, 0
				for u := 0; u < k; u++ {
					if !ts.inTree[u] || u == d {
						continue
					}
					if cc.incremental(ts.depth[u], u, d) == 0 {
						from, fromDepth = u, ts.depth[u]
						break
					}
				}
				if from < 0 {
					continue
				}
				cc.add(fromDepth, from, d)
				out = append(out, edgeOp{int32(fromDepth), int32(from), int32(d)})
				ts.inTree[d] = true
				ts.depth[d] = fromDepth + 1
				ts.needed[d] = false
				remaining--
				committed = true
			}
			if !committed {
				break // no free direct edge left: fall back to a fresh search
			}
		}
	}
	return out
}

// commitPathWave commits a leaf..root path onto the worker's view, marking
// its nodes as tree members and recording the edges for the wave commit.
func (ts *treeSearch) commitPathWave(cc *cachedCost, path []int, out []edgeOp, remaining *int) []edgeOp {
	for i := len(path) - 1; i > 0; i-- {
		u, v := path[i], path[i-1]
		cc.add(ts.depth[u], u, v)
		out = append(out, edgeOp{int32(ts.depth[u]), int32(u), int32(v)})
		ts.inTree[v] = true
		ts.depth[v] = ts.depth[u] + 1
		if ts.needed[v] {
			ts.needed[v] = false
			*remaining--
		}
	}
	return out
}

// dijkstraWave mirrors dijkstra with memoized edge weights.
func (ts *treeSearch) dijkstraWave(cc *cachedCost) int {
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
		u := -1
		best := math.Inf(1)
		for i := 0; i < k; i++ {
			if ts.settled[i] {
				continue
			}
			if d := ts.dist[i]; d < best {
				u, best = i, d
				if d == 0 {
					// 0 is the global minimum (marginals are >= 0) and the
					// full scan picks the lowest-index minimum: stop here.
					break
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
		du := ts.dist[u]
		for v := 0; v < k; v++ {
			// Marginal costs are >= 0, so a node at dist <= dist[u] can never
			// be improved from u: skip the cost query entirely. (Nodes at dist
			// 0 are common once a stage's maximum dwarfs one item's marginal.)
			if v == u || ts.dist[v] <= du || ts.settled[v] || ts.inTree[v] {
				continue
			}
			if nd := du + cc.incremental(ts.pdepth[u], u, v); nd < ts.dist[v] {
				ts.dist[v] = nd
				ts.pdepth[v] = ts.pdepth[u] + 1
				ts.parent[v] = u
			}
		}
	}
}
