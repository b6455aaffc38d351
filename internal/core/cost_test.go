package core

import (
	"math"
	"math/rand"
	"testing"

	"dgcl/internal/topology"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Incremental is the reference oracle for the planner's hop-time table: the
// increase in total cost if `bytes` more bytes were sent on the direct
// channel src->dst during the given stage (Algorithm 2's C(i, ej) entries),
// computed from the volumes with a division on every call.
func (s *State) Incremental(stage, src, dst int, bytes float64) float64 {
	old := 0.0
	if stage < len(s.stageMax) {
		old = s.stageMax[stage]
	}
	newMax := old
	for _, h := range s.m.hops[src*s.m.K+dst] {
		var vol float64
		if stage < len(s.stageVol) {
			vol = s.stageVol[stage][h]
		}
		if t := (vol + bytes) / s.m.bw[h]; t > newMax {
			newMax = t
		}
	}
	return newMax - old
}

// TestHopTimesMatchIncremental drives random commits, stage growth and
// weight switches through the hop-time table and checks that every marginal
// it prices is bitwise the oracle's, on one, two and three machines.
func TestHopTimesMatchIncremental(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.DGX1(), topology.TwoMachineDGX1(), topology.MultiMachineDGX1(3),
	} {
		m, err := NewModel(topo)
		if err != nil {
			t.Fatal(err)
		}
		k := m.K
		rng := rand.New(rand.NewSource(int64(k)))
		ht := newHopTimes(NewState(m))
		// Chunk weights as planSerial sees them: mostly one vertex, sometimes
		// a full or partial chunk, at two row widths.
		weights := []float64{128, 128, 128, 2048, 640, 1024, 16384, 3 * 1024}
		queries := 0
		for step := 0; step < 3000; step++ {
			if step%7 == 0 {
				ht.setWeight(weights[rng.Intn(len(weights))])
			}
			for q := 0; q < 8; q++ {
				// One stage past the last as well: the "beyond" row.
				stage := rng.Intn(ht.s.NumStages() + 2)
				src, dst := rng.Intn(k), rng.Intn(k)
				if src == dst {
					continue
				}
				row, stageMax := ht.at(stage)
				got := marginal(row, stageMax, m.hops[src*k+dst])
				want := ht.s.Incremental(stage, src, dst, ht.w)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s step %d: marginal(%d, %d->%d, w=%v) = %v, oracle %v",
						topo.Name, step, stage, src, dst, ht.w, got, want)
				}
				queries++
			}
			// Commits mostly land on existing stages and sometimes open the
			// next one, as a tree's deepening path does.
			src, dst := rng.Intn(k), rng.Intn(k)
			if src != dst {
				ht.add(rng.Intn(ht.s.NumStages()+1), src, dst)
			}
		}
		if ht.s.NumStages() < 4 || queries == 0 {
			t.Fatalf("%s: battery reached %d stages, %d queries", topo.Name, ht.s.NumStages(), queries)
		}
	}
}

func TestModelChannelTime(t *testing.T) {
	topo := topology.DGX1()
	m, err := NewModel(topo)
	if err != nil {
		t.Fatal(err)
	}
	// GPU0->GPU3 is NV2: 1 GB in 1/48.35 s.
	got := m.ChannelTime(0, 3, 1e9)
	want := 1e9 / topology.NV2.Bandwidth()
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("NV2 time=%v want %v", got, want)
	}
	// GPU0->GPU5 crosses QPI: bottleneck is QPI.
	got = m.ChannelTime(0, 5, 1e9)
	want = 1e9 / topology.QPI.Bandwidth()
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("QPI-bound time=%v want %v", got, want)
	}
}

func TestStateSingleTransferCost(t *testing.T) {
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 1, 1e9) // NV1 link 0-1
	want := 1e9 / topology.NV1.Bandwidth()
	if !almostEqual(s.Cost(), want, 1e-12) {
		t.Fatalf("cost=%v want %v", s.Cost(), want)
	}
}

func TestStateParallelLinksDoNotAdd(t *testing.T) {
	// Two transfers in the same stage on disjoint links: stage time is the
	// max, not the sum.
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 1, 1e9)                    // NV1
	s.Add(0, 4, 7, 1e9)                    // NV2, disjoint
	want := 1e9 / topology.NV1.Bandwidth() // slower of the two
	if !almostEqual(s.Cost(), want, 1e-12) {
		t.Fatalf("cost=%v want %v (parallel links must not add)", s.Cost(), want)
	}
}

func TestStateContentionOnSharedHop(t *testing.T) {
	// GPU0->GPU5 and GPU1->GPU4 (neither pair has NVLink on the DGX-1) both
	// cross the same QPI hop in the same direction during the same stage:
	// their volumes aggregate on QPI.
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 5, 1e9)
	s.Add(0, 1, 4, 1e9)
	want := 2e9 / topology.QPI.Bandwidth()
	if !almostEqual(s.Cost(), want, 1e-9) {
		t.Fatalf("cost=%v want %v (contention must aggregate)", s.Cost(), want)
	}
}

func TestStateOppositeDirectionsDoNotContend(t *testing.T) {
	// Full-duplex: 0->5 and 5->0 cross QPI in opposite directions.
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 5, 1e9)
	s.Add(0, 5, 0, 1e9)
	want := 1e9 / topology.QPI.Bandwidth()
	if !almostEqual(s.Cost(), want, 1e-9) {
		t.Fatalf("cost=%v want %v (duplex directions independent)", s.Cost(), want)
	}
}

func TestStateStagesAdd(t *testing.T) {
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 1, 1e9)
	s.Add(1, 1, 4, 1e9) // 1-4 has no NVLink: QPI-bound
	want := 1e9/topology.NV1.Bandwidth() + 1e9/topology.QPI.Bandwidth()
	if !almostEqual(s.Cost(), want, 1e-9) {
		t.Fatalf("cost=%v want %v (stages are sequential)", s.Cost(), want)
	}
	if s.NumStages() != 2 {
		t.Fatalf("stages=%d", s.NumStages())
	}
}

func TestIncrementalMatchesAdd(t *testing.T) {
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 5, 5e8)
	s.Add(0, 2, 6, 1e9)
	inc := s.Incremental(0, 1, 5, 7e8)
	before := s.Cost()
	s.Add(0, 1, 5, 7e8)
	if got := s.Cost() - before; !almostEqual(got, inc, 1e-12) {
		t.Fatalf("incremental=%v actual delta=%v", inc, got)
	}
}

func TestIncrementalZeroOnUnderloadedLink(t *testing.T) {
	// With a heavily loaded QPI hop, adding a small volume on an idle NVLink
	// in the same stage costs nothing — this drives SPST's load balancing.
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	s.Add(0, 0, 5, 1e9) // QPI-bound; stage time >> NVLink small transfer
	if inc := s.Incremental(0, 4, 7, 1e6); inc != 0 {
		t.Fatalf("incremental on idle NVLink should be 0, got %v", inc)
	}
}

func TestCostOfPlanMatchesState(t *testing.T) {
	m, _ := NewModel(topology.DGX1())
	s := NewState(m)
	p := NewPlan(8, 4, "test")
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2, 3}}, {Src: 2, Dst: 6, Vertices: []int32{9}}},
		{{Src: 1, Dst: 5, Vertices: []int32{1, 2, 3}}},
	}
	for si, st := range p.Stages {
		for _, tr := range st {
			s.Add(si, tr.Src, tr.Dst, float64(int64(len(tr.Vertices))*p.BytesPerVertex))
		}
	}
	if got := CostOfPlan(m, p); !almostEqual(got, s.Cost(), 1e-15) {
		t.Fatalf("CostOfPlan=%v state=%v", got, s.Cost())
	}
}

func TestFeatureDimensionInvariance(t *testing.T) {
	// §5.1: scaling the feature dimension scales the cost of every plan
	// linearly, so the optimal plan is invariant. Verify linearity.
	m, _ := NewModel(topology.DGX1())
	p := NewPlan(8, 100, "test")
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2}}, {Src: 0, Dst: 5, Vertices: []int32{3}}},
		{{Src: 1, Dst: 4, Vertices: []int32{1}}},
	}
	c1 := CostOfPlan(m, p)
	p.BytesPerVertex = 300
	c3 := CostOfPlan(m, p)
	if !almostEqual(c3, 3*c1, 1e-12*c1+1e-18) {
		t.Fatalf("cost must scale linearly with feature dim: %v vs 3*%v", c3, c1)
	}
}

func TestLinkClassBreakdown(t *testing.T) {
	m, _ := NewModel(topology.DGX1())
	p := NewPlan(8, 1000, "test")
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: make([]int32, 100)}}, // NVLink only
	}
	nv, ot := LinkClassBreakdown(m, p)
	if nv <= 0 || ot != 0 {
		t.Fatalf("nv=%v ot=%v for NVLink-only plan", nv, ot)
	}
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 5, Vertices: make([]int32, 100)}}, // PCIe/QPI only
	}
	nv, ot = LinkClassBreakdown(m, p)
	if nv != 0 || ot <= 0 {
		t.Fatalf("nv=%v ot=%v for fabric-only plan", nv, ot)
	}
}
