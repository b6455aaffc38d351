// Package baselines implements the three communication schemes the paper
// compares DGCL against (§7): peer-to-peer direct transfers (as in ROC/Lux),
// swap through CPU main memory with chain-transfer (as in NeuGraph), and
// replication of K-hop neighborhoods that eliminates communication entirely
// at the price of memory and recomputation (as in Medusa).
package baselines

import (
	"fmt"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

// PlanP2P builds the peer-to-peer plan: every GPU pair exchanges its Vij
// directly over its direct channel, all concurrently in a single stage. This
// is the strategy whose contention and slow-link usage §3 analyzes.
func PlanP2P(rel *comm.Relation, bytesPerVertex int64) *core.Plan {
	p := core.NewPlan(rel.K, bytesPerVertex, "p2p")
	var stage []core.Transfer
	for src := 0; src < rel.K; src++ {
		for dst := 0; dst < rel.K; dst++ {
			if len(rel.Send[src][dst]) > 0 {
				stage = append(stage, core.Transfer{Src: src, Dst: dst, Vertices: rel.Send[src][dst]})
			}
		}
	}
	if len(stage) > 0 {
		p.Stages = append(p.Stages, stage)
	}
	return p
}

// SwapPlan describes the NeuGraph-style exchange through host memory: after
// each layer every GPU dumps all of its local vertex embeddings to its
// machine's main memory, then every GPU loads the remote embeddings it
// needs. With the chain-transfer optimization the dump and the load are
// pipelined per-partition, which we model as two bulk phases bottlenecked by
// each GPU's PCIe path.
type SwapPlan struct {
	K          int
	WriteBytes []int64 // per GPU: local embeddings dumped to host memory
	ReadBytes  []int64 // per GPU: remote embeddings loaded from host memory
	CrossBytes []int64 // per machine: bytes shipped to the other machines' memory
}

// PlanSwap builds the swap plan for the relation. NeuGraph targets a single
// machine; on multi-machine topologies the host memories additionally
// exchange the embeddings needed across machines (CrossBytes), which the
// cost model charges to the NIC path.
func PlanSwap(rel *comm.Relation, topo *topology.Topology, bytesPerVertex int64) (*SwapPlan, error) {
	if topo.NumGPUs() != rel.K {
		return nil, fmt.Errorf("baselines: topology has %d GPUs, relation %d", topo.NumGPUs(), rel.K)
	}
	sp := &SwapPlan{
		K:          rel.K,
		WriteBytes: make([]int64, rel.K),
		ReadBytes:  make([]int64, rel.K),
		CrossBytes: make([]int64, topo.NumMachines()),
	}
	for d := 0; d < rel.K; d++ {
		sp.WriteBytes[d] = int64(len(rel.Local[d])) * bytesPerVertex
		sp.ReadBytes[d] = int64(len(rel.Remote[d])) * bytesPerVertex
	}
	if topo.NumMachines() > 1 {
		for d := 0; d < rel.K; d++ {
			md := topo.GPUMachine(d)
			for _, v := range rel.Remote[d] {
				src := int(rel.Owner[v])
				if topo.GPUMachine(src) != md {
					sp.CrossBytes[topo.GPUMachine(src)] += bytesPerVertex
				}
			}
		}
	}
	return sp, nil
}

// ReplicationInfo summarizes the Medusa-style replication strategy for a
// K-layer GNN: every GPU stores its own partition plus the khop-hop
// in-neighborhood of it, so no embeddings ever cross GPUs.
type ReplicationInfo struct {
	Hops      int
	PerGPU    []int   // vertices stored per GPU (owned + replicated)
	Factor    float64 // total stored / |V| (Figure 4's replication factor)
	MaxStored int     // largest per-GPU vertex count
}

// Replication computes the replication sets for a khop-layer GNN under the
// given partition.
func Replication(g *graph.Graph, p *partition.Partition, khop int) *ReplicationInfo {
	members := p.Members()
	info := &ReplicationInfo{Hops: khop, PerGPU: make([]int, p.K)}
	var total int
	for d := 0; d < p.K; d++ {
		stored := len(g.KHopNeighborhood(members[d], khop, true))
		info.PerGPU[d] = stored
		total += stored
		if stored > info.MaxStored {
			info.MaxStored = stored
		}
	}
	if n := g.NumVertices(); n > 0 {
		info.Factor = float64(total) / float64(n)
	}
	return info
}
