package core

import (
	"fmt"
	"slices"

	"dgcl/internal/tensor"
	"dgcl/internal/topology"
)

// The cost model of §5.1. Communications happen in stages; within a stage
// all transfers run concurrently. Each logical GPU-to-GPU channel occupies a
// chain of physical hops; the data a channel moves in a stage is charged to
// every hop it crosses, in the hop's direction. A hop's stage time is its
// aggregate charged bytes divided by its bandwidth (this is how contention
// between channels sharing the hop is accounted); a stage's time is the
// maximum over all hop times (links in the same stage are parallel, and a
// stage finishes when its slowest link does); the plan's cost is the sum of
// stage times.

// hopSlot encodes a directed use of a physical connection: conn id * 2 plus
// 0/1 for the A->B / B->A direction. Opposite directions of a full-duplex
// connection do not contend.
type hopSlot int32

// Model precomputes, for every ordered GPU pair, the directed hop slots of
// its direct channel, so cost evaluation never touches the topology again.
type Model struct {
	Topo *topology.Topology
	K    int
	hops [][]hopSlot // [src*K+dst] -> directed hop slots
	bw   []float64   // hop slot -> bandwidth (bytes/s)
}

// NewModel builds a cost model for the topology.
func NewModel(topo *topology.Topology) (*Model, error) {
	k := topo.NumGPUs()
	chans, err := topo.AllGPUChannels()
	if err != nil {
		return nil, err
	}
	m := &Model{Topo: topo, K: k}
	m.bw = make([]float64, 2*len(topo.Conns()))
	for _, c := range topo.Conns() {
		m.bw[2*c.ID] = c.Bandwidth
		m.bw[2*c.ID+1] = c.Bandwidth
	}
	m.hops = make([][]hopSlot, k*k)
	for s := 0; s < k; s++ {
		for d := 0; d < k; d++ {
			if s != d {
				m.hops[s*k+d] = m.directedHops(chans[s][d])
			}
		}
	}
	return m, nil
}

// directedHops walks the channel's hop chain from the source node and
// assigns each hop its traversal direction.
func (m *Model) directedHops(ch *topology.Channel) []hopSlot {
	cur := m.Topo.GPUNode(ch.Src)
	out := make([]hopSlot, len(ch.Hops))
	for i, hi := range ch.Hops {
		c := m.Topo.Conn(hi)
		if c.A == cur {
			out[i] = hopSlot(2 * c.ID)
			cur = c.B
		} else {
			out[i] = hopSlot(2*c.ID + 1)
			cur = c.A
		}
	}
	return out
}

// ChannelTime returns the uncontended time to move the given bytes over the
// direct channel between src and dst (bottleneck hop bound).
func (m *Model) ChannelTime(src, dst int, bytes int64) float64 {
	var worst float64
	for _, h := range m.hops[src*m.K+dst] {
		if t := float64(bytes) / m.bw[h]; t > worst {
			worst = t
		}
	}
	return worst
}

// State is the mutable accumulator the SPST algorithm updates as it routes
// vertices: per-stage, per-directed-hop byte counts, with the per-stage
// maximum hop time cached so that cost and marginal-cost queries are
// O(hops per channel).
type State struct {
	m        *Model
	stageVol [][]float64 // [stage][hopSlot] -> bytes
	stageMax []float64   // [stage] -> current stage time (seconds)
}

// NewState returns an empty accumulation state for the model.
func NewState(m *Model) *State { return &State{m: m} }

func (s *State) ensure(stage int) {
	for len(s.stageVol) <= stage {
		s.stageVol = append(s.stageVol, make([]float64, len(s.m.bw)))
		s.stageMax = append(s.stageMax, 0)
	}
}

// Cost returns the total modeled communication time in seconds: the sum over
// stages of the maximum hop time in the stage.
func (s *State) Cost() float64 {
	return tensor.Sum64(s.stageMax)
}

// NumStages returns the number of stages with any volume.
func (s *State) NumStages() int { return len(s.stageMax) }

// Add commits `bytes` on the direct channel src->dst at the given stage and
// updates the cached stage maximum.
func (s *State) Add(stage, src, dst int, bytes float64) {
	s.ensure(stage)
	for _, h := range s.m.hops[src*s.m.K+dst] {
		s.stageVol[stage][h] += bytes
		if t := s.stageVol[stage][h] / s.m.bw[h]; t > s.stageMax[stage] {
			s.stageMax[stage] = t
		}
	}
}

// hopTimes is the planner's pricing view of a State for one item of
// w bytes: rows[stage][slot] = (vol + w) / bw is the time the hop would take
// in that stage if the item crossed it too, and beyond[slot] = w / bw is the
// same for a stage no transfer uses yet. A marginal-cost query (Algorithm 2's
// C(i, ej)) is then one load and one compare per hop, with no division. The
// rows are recomputed when w changes and refreshed on the hops a commit
// touches, always with the expression a per-query division would use, so
// every marginal is bitwise the same.
type hopTimes struct {
	s      *State
	w      float64
	rows   [][]float64 // [stage][hopSlot], one row per State stage
	beyond []float64   // [hopSlot]
}

func newHopTimes(s *State) *hopTimes {
	return &hopTimes{s: s, beyond: make([]float64, len(s.m.bw))}
}

// setWeight reprices the table for an item of w bytes.
func (h *hopTimes) setWeight(w float64) {
	if w == h.w {
		return
	}
	h.w = w
	bw := h.s.m.bw
	for i, b := range bw {
		h.beyond[i] = w / b
	}
	for st, row := range h.rows {
		vol := h.s.stageVol[st]
		for i, b := range bw {
			row[i] = (vol[i] + w) / b
		}
	}
}

// add commits the item on the direct channel src->dst at the given stage and
// refreshes the hops it touched.
func (h *hopTimes) add(stage, src, dst int) {
	h.s.Add(stage, src, dst, h.w)
	for len(h.rows) < len(h.s.stageVol) {
		// An empty stage's volumes are 0, and 0 + w == w exactly.
		h.rows = append(h.rows, slices.Clone(h.beyond))
	}
	row, vol, bw := h.rows[stage], h.s.stageVol[stage], h.s.m.bw
	for _, hs := range h.s.m.hops[src*h.s.m.K+dst] {
		row[hs] = (vol[hs] + h.w) / bw[hs]
	}
}

// at returns the hop-time row and the current time of a stage.
func (h *hopTimes) at(stage int) (row []float64, stageMax float64) {
	if stage < len(h.rows) {
		return h.rows[stage], h.s.stageMax[stage]
	}
	return h.beyond, 0
}

// marginal returns the increase in total cost if the item crossed the hops
// in a stage whose hop-time row and time at returned.
func marginal(row []float64, stageMax float64, hops []hopSlot) float64 {
	newMax := stageMax
	for _, h := range hops {
		if t := row[h]; t > newMax {
			newMax = t
		}
	}
	return newMax - stageMax
}

// ReplayState rebuilds the planner's accumulation state from a finished plan
// by replaying every transfer, independent of any State accumulated during
// planning. The plan cache uses it to return a cost state for cached plans.
func ReplayState(m *Model, p *Plan) *State {
	s := NewState(m)
	for si, st := range p.Stages {
		for _, t := range st {
			s.Add(si, t.Src, t.Dst, float64(int64(len(t.Vertices))*p.BytesPerVertex))
		}
	}
	return s
}

// CostOfPlan evaluates the §5.1 cost model for a complete plan against the
// model.
func CostOfPlan(m *Model, p *Plan) float64 { return ReplayState(m, p).Cost() }

// LinkClassBreakdown computes, for a plan, the modeled time attributable to
// NVLink hops versus all other hop types (Table 7 / Table 2 style
// breakdowns). For each stage it takes the max hop time among NVLink hops
// and among non-NVLink hops separately and sums over stages.
func LinkClassBreakdown(m *Model, p *Plan) (nvlink, others float64) {
	numStages := p.NumStages()
	nvMax := make([]float64, numStages)
	otMax := make([]float64, numStages)
	vol := make(map[[2]int]float64) // (stage, hopSlot) -> bytes
	for si, st := range p.Stages {
		for _, t := range st {
			bytes := float64(int64(len(t.Vertices)) * p.BytesPerVertex)
			for _, h := range m.hops[t.Src*m.K+t.Dst] {
				key := [2]int{si, int(h)}
				vol[key] += bytes
				tm := vol[key] / m.bw[h]
				connType := m.Topo.Conn(int(h) / 2).Type
				if connType.IsNVLink() {
					if tm > nvMax[si] {
						nvMax[si] = tm
					}
				} else if tm > otMax[si] {
					otMax[si] = tm
				}
			}
		}
	}
	nvlink = tensor.Sum64(nvMax)
	others = tensor.Sum64(otMax)
	return nvlink, others
}

func (m *Model) String() string {
	return fmt.Sprintf("core.Model{%s, K=%d, conns=%d}", m.Topo.Name, m.K, len(m.Topo.Conns()))
}
