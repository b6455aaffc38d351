// Package core implements the paper's primary contribution: communication
// planning for distributed GNN training. It defines the staged communication
// plan representation (§6.1's (di, dj, k, Ts, Tr) tuples), the stage-based
// cost model of §5.1, and the shortest path spanning tree (SPST) planning
// algorithm of §5.2, the reversed backward schedule of §6.1 and the ablation
// switches called out in DESIGN.md.
package core

import (
	"fmt"
	"sort"

	"dgcl/internal/comm"
)

// PairID identifies an ordered GPU pair within a plan (src*K + dst).
type PairID int32

// MakePair builds a PairID.
func MakePair(k, src, dst int) PairID { return PairID(src*k + dst) }

// Src returns the sending GPU of the pair.
func (p PairID) Src(k int) int { return int(p) / k }

// Dst returns the receiving GPU of the pair.
func (p PairID) Dst(k int) int { return int(p) % k }

// Transfer is one entry of a stage: GPU Src sends the embeddings of Vertices
// (global ids, in send-buffer order) to GPU Dst. It corresponds to the
// paper's (di, dj, k, Ts) tuple; the receive table Tr is the same list seen
// from the receiver.
type Transfer struct {
	Src, Dst int
	Vertices []int32
}

// Plan is a staged communication schedule for one graphAllgather. Stage k
// (1-based in the paper; index k-1 here) contains the transfers whose tree
// edges are k hops from their roots. All transfers within a stage may run
// concurrently; stages run sequentially.
type Plan struct {
	K              int
	BytesPerVertex int64
	Stages         [][]Transfer
	Algorithm      string // which planner produced it ("spst", "p2p", ...)
}

// NewPlan returns an empty plan for k GPUs.
func NewPlan(k int, bytesPerVertex int64, algorithm string) *Plan {
	return &Plan{K: k, BytesPerVertex: bytesPerVertex, Algorithm: algorithm}
}

// planBuilder accumulates vertices per (stage, pair) and emits a normalized
// Plan.
type planBuilder struct {
	k      int
	stages []map[PairID][]int32
}

func newPlanBuilder(k int) *planBuilder { return &planBuilder{k: k} }

func (b *planBuilder) add(stage int, src, dst int, vertices []int32) {
	for len(b.stages) <= stage {
		b.stages = append(b.stages, make(map[PairID][]int32))
	}
	p := MakePair(b.k, src, dst)
	b.stages[stage] = ensureStage(b.stages[stage])
	b.stages[stage][p] = append(b.stages[stage][p], vertices...)
}

func ensureStage(m map[PairID][]int32) map[PairID][]int32 {
	if m == nil {
		return make(map[PairID][]int32)
	}
	return m
}

func (b *planBuilder) build(bytesPerVertex int64, algorithm string) *Plan {
	p := NewPlan(b.k, bytesPerVertex, algorithm)
	for _, st := range b.stages {
		var ts []Transfer
		pairs := make([]PairID, 0, len(st))
		for pair := range st {
			pairs = append(pairs, pair)
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
		for _, pair := range pairs {
			ts = append(ts, Transfer{Src: pair.Src(b.k), Dst: pair.Dst(b.k), Vertices: st[pair]})
		}
		p.Stages = append(p.Stages, ts)
	}
	// Trim trailing empty stages.
	for len(p.Stages) > 0 && len(p.Stages[len(p.Stages)-1]) == 0 {
		p.Stages = p.Stages[:len(p.Stages)-1]
	}
	return p
}

// NumStages returns the number of stages.
func (p *Plan) NumStages() int { return len(p.Stages) }

// TotalBytes returns the total bytes moved by the plan (forwarded vertices
// count once per hop, as they occupy links on every hop).
func (p *Plan) TotalBytes() int64 {
	var n int64
	for _, st := range p.Stages {
		for _, t := range st {
			n += int64(len(t.Vertices)) * p.BytesPerVertex
		}
	}
	return n
}

// TableMemoryBytes returns the memory needed for the send/receive tables of
// §6.1: 4 bytes per vertex id, counted twice (sender's Ts plus receiver's
// Tr). The same tables are reused for every layer and for the backward pass.
func (p *Plan) TableMemoryBytes() int64 {
	var ids int64
	for _, st := range p.Stages {
		for _, t := range st {
			ids += int64(len(t.Vertices))
		}
	}
	return ids * 4 * 2
}

// Validate checks that the plan is executable against the relation: every
// transfer's sender owns the vertex or has received it in an earlier stage,
// no duplicate delivery, and after the final stage every GPU holds exactly
// its remote set.
func (p *Plan) Validate(rel *comm.Relation) error {
	if p.K != rel.K {
		return fmt.Errorf("core: plan K=%d relation K=%d", p.K, rel.K)
	}
	have := make([]map[int32]bool, p.K)
	for d := 0; d < p.K; d++ {
		have[d] = make(map[int32]bool)
		for _, v := range rel.Local[d] {
			have[d][v] = true
		}
	}
	for si, st := range p.Stages {
		type delivery struct {
			dst int
			v   int32
		}
		var pending []delivery
		for _, t := range st {
			if t.Src == t.Dst {
				return fmt.Errorf("core: stage %d transfer to self on GPU %d", si+1, t.Src)
			}
			if t.Src < 0 || t.Src >= p.K || t.Dst < 0 || t.Dst >= p.K {
				return fmt.Errorf("core: stage %d transfer with bad endpoints %d->%d", si+1, t.Src, t.Dst)
			}
			for _, v := range t.Vertices {
				if !have[t.Src][v] {
					return fmt.Errorf("core: stage %d GPU %d sends vertex %d it does not hold", si+1, t.Src, v)
				}
				pending = append(pending, delivery{t.Dst, v})
			}
		}
		// Within a stage all sends read state from before the stage.
		for _, d := range pending {
			if have[d.dst][d.v] {
				return fmt.Errorf("core: vertex %d delivered to GPU %d twice", d.v, d.dst)
			}
			have[d.dst][d.v] = true
		}
	}
	for d := 0; d < p.K; d++ {
		for _, v := range rel.Remote[d] {
			if !have[d][v] {
				return fmt.Errorf("core: plan never delivers vertex %d to GPU %d", v, d)
			}
		}
	}
	return nil
}

// BackwardSchedule returns the backward-pass schedule: the forward stages in
// reverse order with send and receive roles swapped (gradients flow opposite
// to embeddings, §6.1). It is the one backward schedule: each client is the
// only writer of its rows, so a receiver that gets several gradients for one
// vertex in a stage adds them serially and needs neither atomic adds nor
// §6.2's sub-stage split.
func (p *Plan) BackwardSchedule() [][]Transfer {
	out := make([][]Transfer, 0, len(p.Stages))
	for si := len(p.Stages) - 1; si >= 0; si-- {
		reversed := make([]Transfer, len(p.Stages[si]))
		for i, t := range p.Stages[si] {
			reversed[i] = Transfer{Src: t.Dst, Dst: t.Src, Vertices: t.Vertices}
		}
		out = append(out, reversed)
	}
	return out
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("Plan{%s, K=%d, stages=%d, bytes=%d}", p.Algorithm, p.K, p.NumStages(), p.TotalBytes())
}
