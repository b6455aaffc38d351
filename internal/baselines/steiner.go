package baselines

import (
	"fmt"
	"math"
	"sort"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/topology"
)

// PlanSteiner is the §5.2 strawman: route each vertex class along an
// approximate Steiner tree computed with *static* per-byte link costs
// (1/bandwidth of the channel bottleneck), using the classic
// nearest-terminal 2-approximation over the metric closure. It ignores what
// the paper's cost model knows — that concurrent transfers contend on
// shared hops and that stage times are maxima, not sums — so its plans load
// the fast links blindly. Comparing its §5.1-modeled cost against SPST's
// quantifies why GNN communication planning is not a Steiner tree problem.
func PlanSteiner(rel *comm.Relation, topo *topology.Topology, bytesPerVertex int64) (*core.Plan, error) {
	k := topo.NumGPUs()
	if k != rel.K {
		return nil, fmt.Errorf("baselines: topology has %d GPUs, relation %d", k, rel.K)
	}
	m, err := core.NewModel(topo)
	if err != nil {
		return nil, err
	}
	// Static per-byte direct costs, then all-pairs shortest paths
	// (Floyd-Warshall; k <= 16) with next-hop reconstruction.
	dist := make([][]float64, k)
	next := make([][]int, k)
	for i := 0; i < k; i++ {
		dist[i] = make([]float64, k)
		next[i] = make([]int, k)
		for j := 0; j < k; j++ {
			switch {
			case i == j:
				dist[i][j] = 0
				next[i][j] = j
			default:
				dist[i][j] = m.ChannelTime(i, j, 1)
				next[i][j] = j
			}
		}
	}
	for via := 0; via < k; via++ {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if d := dist[i][via] + dist[via][j]; d < dist[i][j] {
					dist[i][j] = d
					next[i][j] = next[i][via]
				}
			}
		}
	}

	type stagedEdge struct {
		stage, src, dst int
	}
	stageTransfers := map[stagedEdge][]int32{}
	maxStage := 0

	inTree := make([]bool, k)
	depth := make([]int, k)
	remaining := make([]bool, k)
	for _, cl := range rel.Classes() {
		for i := range inTree {
			inTree[i] = false
			remaining[i] = false
		}
		inTree[cl.Src] = true
		depth[cl.Src] = 0
		left := 0
		for _, d := range cl.Dsts {
			if !remaining[d] {
				remaining[d] = true
				left++
			}
		}
		for left > 0 {
			// Nearest remaining terminal to the current tree; ties go to
			// the lowest (from, to).
			bestFrom, bestTo, bestD := -1, -1, math.Inf(1)
			for from := 0; from < k; from++ {
				if !inTree[from] {
					continue
				}
				for to := 0; to < k; to++ {
					if remaining[to] && dist[from][to] < bestD {
						bestFrom, bestTo, bestD = from, to, dist[from][to]
					}
				}
			}
			if bestFrom < 0 {
				return nil, fmt.Errorf("baselines: unreachable terminal for class src=%d", cl.Src)
			}
			// Expand the metric-closure path and graft it onto the tree.
			for cur := bestFrom; cur != bestTo; {
				nxt := next[cur][bestTo]
				if !inTree[nxt] {
					e := stagedEdge{stage: depth[cur], src: cur, dst: nxt}
					stageTransfers[e] = append(stageTransfers[e], cl.Vertices...)
					inTree[nxt] = true
					depth[nxt] = depth[cur] + 1
					if depth[nxt] > maxStage {
						maxStage = depth[nxt]
					}
					if remaining[nxt] {
						remaining[nxt] = false
						left--
					}
				}
				cur = nxt
			}
		}
	}

	plan := core.NewPlan(k, bytesPerVertex, "steiner")
	plan.Stages = make([][]core.Transfer, maxStage)
	edges := make([]stagedEdge, 0, len(stageTransfers))
	for e := range stageTransfers {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	for _, e := range edges {
		plan.Stages[e.stage] = append(plan.Stages[e.stage], core.Transfer{
			Src: e.src, Dst: e.dst, Vertices: stageTransfers[e],
		})
	}
	return plan, nil
}
