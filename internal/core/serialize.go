package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// Plan serialization: communication plans are computed once before training
// (§4.1) and can be persisted and re-issued to clients; the JSON form also
// feeds external analysis.

// planJSON is the stable wire form of a Plan.
type planJSON struct {
	K              int          `json:"k"`
	BytesPerVertex int64        `json:"bytes_per_vertex"`
	Algorithm      string       `json:"algorithm"`
	Stages         [][]Transfer `json:"stages"`
}

// WriteJSON serializes the plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(planJSON{
		K: p.K, BytesPerVertex: p.BytesPerVertex, Algorithm: p.Algorithm, Stages: p.Stages,
	})
}

// ReadPlanJSON deserializes a plan and performs structural validation (it
// does not validate against a relation; use Plan.Validate for that).
func ReadPlanJSON(r io.Reader) (*Plan, error) {
	var pj planJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decode plan: %w", err)
	}
	if pj.K < 1 {
		return nil, fmt.Errorf("core: plan has K=%d", pj.K)
	}
	if pj.BytesPerVertex < 1 {
		return nil, fmt.Errorf("core: plan has bytes_per_vertex=%d", pj.BytesPerVertex)
	}
	p := &Plan{K: pj.K, BytesPerVertex: pj.BytesPerVertex, Algorithm: pj.Algorithm, Stages: pj.Stages}
	for si, st := range p.Stages {
		for _, t := range st {
			if t.Src < 0 || t.Src >= p.K || t.Dst < 0 || t.Dst >= p.K || t.Src == t.Dst {
				return nil, fmt.Errorf("core: stage %d has invalid transfer %d->%d", si+1, t.Src, t.Dst)
			}
		}
	}
	return p, nil
}

// Stats summarizes a plan for inspection and regression baselines.
type Stats struct {
	Stages          int
	Transfers       int
	VertexSends     int64 // vertex copies moved (counting each hop)
	UniqueDelivered int64 // distinct (gpu, vertex) deliveries
	RelayedSends    int64 // vertex copies sent by a GPU that does not own them
	MaxFanoutPerGPU int   // most transfers any GPU sends in one stage
	BytesTotal      int64
	TableBytes      int64
}

// ComputeStats derives plan statistics. owner maps global vertex id to its
// owning GPU (pass nil to skip relay accounting).
func (p *Plan) ComputeStats(owner []int32) Stats {
	s := Stats{Stages: p.NumStages(), BytesTotal: p.TotalBytes(), TableBytes: p.TableMemoryBytes()}
	delivered := make(map[int64]bool)
	for _, st := range p.Stages {
		fanout := map[int]int{}
		for _, t := range st {
			s.Transfers++
			s.VertexSends += int64(len(t.Vertices))
			fanout[t.Src]++
			for _, v := range t.Vertices {
				key := int64(t.Dst)<<40 | int64(v)
				if !delivered[key] {
					delivered[key] = true
					s.UniqueDelivered++
				}
				if owner != nil && int(owner[v]) != t.Src {
					s.RelayedSends++
				}
			}
		}
		for _, f := range fanout {
			if f > s.MaxFanoutPerGPU {
				s.MaxFanoutPerGPU = f
			}
		}
	}
	return s
}
