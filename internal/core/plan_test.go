package core

import (
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
)

func ringRelation(t *testing.T) *comm.Relation {
	t.Helper()
	g := graph.Ring(8)
	p := partition.Range(g, 4)
	rel, err := comm.Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestPairID(t *testing.T) {
	p := MakePair(8, 3, 5)
	if p.Src(8) != 3 || p.Dst(8) != 5 {
		t.Fatalf("pair roundtrip: %d -> %d,%d", p, p.Src(8), p.Dst(8))
	}
}

func TestPlanValidateCatchesPhantomSend(t *testing.T) {
	rel := ringRelation(t)
	p := NewPlan(4, 8, "bad")
	// GPU0 sends vertex 4 which it does not own.
	p.Stages = [][]Transfer{{{Src: 0, Dst: 1, Vertices: []int32{4}}}}
	if err := p.Validate(rel); err == nil {
		t.Fatal("expected phantom-send error")
	}
}

func TestPlanValidateCatchesMissingDelivery(t *testing.T) {
	rel := ringRelation(t)
	p := NewPlan(4, 8, "empty")
	if err := p.Validate(rel); err == nil {
		t.Fatal("expected missing-delivery error")
	}
}

func TestPlanValidateCatchesSelfSend(t *testing.T) {
	rel := ringRelation(t)
	p := NewPlan(4, 8, "self")
	p.Stages = [][]Transfer{{{Src: 0, Dst: 0, Vertices: []int32{0}}}}
	if err := p.Validate(rel); err == nil {
		t.Fatal("expected self-send error")
	}
}

func TestPlanValidateForwardingChain(t *testing.T) {
	// Vertex 1 (owned by GPU0) forwarded 0->1 at stage 1, then 1->2 at stage
	// 2 must be accepted; sending 1->2 at stage 1 must be rejected.
	g := graph.Ring(8)
	// Custom relation: GPU2 needs vertex 1 as well.
	p := partition.Range(g, 4)
	rel, _ := comm.Build(g, p)
	rel.Remote[2] = append(rel.Remote[2], 1)
	rel.Send[0][2] = append(rel.Send[0][2], 1)

	good := NewPlan(4, 8, "fwd")
	good.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1}}, {Src: 1, Dst: 0, Vertices: []int32{2}},
			{Src: 1, Dst: 2, Vertices: []int32{3}}, {Src: 2, Dst: 1, Vertices: []int32{4}},
			{Src: 2, Dst: 3, Vertices: []int32{5}}, {Src: 3, Dst: 2, Vertices: []int32{6}},
			{Src: 3, Dst: 0, Vertices: []int32{7}}, {Src: 0, Dst: 3, Vertices: []int32{0}}},
		{{Src: 1, Dst: 2, Vertices: []int32{1}}},
	}
	if err := good.Validate(rel); err != nil {
		t.Fatalf("forwarding chain should validate: %v", err)
	}
	bad := NewPlan(4, 8, "fwd-bad")
	bad.Stages = [][]Transfer{
		{{Src: 1, Dst: 2, Vertices: []int32{1}}},
	}
	if err := bad.Validate(rel); err == nil {
		t.Fatal("stage-1 forward of unreceived vertex must fail")
	}
}

func TestPlanTotalsAndTables(t *testing.T) {
	p := NewPlan(4, 100, "t")
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2, 3}}},
		{{Src: 1, Dst: 2, Vertices: []int32{1, 2}}},
	}
	if got := p.TotalBytes(); got != 500 {
		t.Fatalf("TotalBytes=%d want 500", got)
	}
	if got := p.TableMemoryBytes(); got != 5*4*2 {
		t.Fatalf("TableMemoryBytes=%d want 40", got)
	}
	if p.NumStages() != 2 {
		t.Fatalf("NumStages=%d", p.NumStages())
	}
}

func TestBackwardScheduleReversesStages(t *testing.T) {
	p := NewPlan(4, 8, "t")
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1}}},
		{{Src: 1, Dst: 2, Vertices: []int32{1}}},
	}
	sched := p.BackwardSchedule()
	if len(sched) != 2 {
		t.Fatalf("backward stages=%d", len(sched))
	}
	// First backward stage is the reverse of the last forward stage.
	first := sched[0][0]
	if first.Src != 2 || first.Dst != 1 {
		t.Fatalf("first backward transfer = %+v, want 2->1", first)
	}
	last := sched[1][0]
	if last.Src != 1 || last.Dst != 0 {
		t.Fatalf("last backward transfer = %+v, want 1->0", last)
	}
}

func TestPlanBuilderTrimsEmptyStages(t *testing.T) {
	pb := newPlanBuilder(4)
	pb.add(2, 0, 1, []int32{7})
	p := pb.build(8, "t")
	if p.NumStages() != 3 {
		t.Fatalf("stages=%d want 3 (two empty leading)", p.NumStages())
	}
	if len(p.Stages[0]) != 0 || len(p.Stages[2]) != 1 {
		t.Fatal("stage contents wrong")
	}
}

func TestPlanString(t *testing.T) {
	p := NewPlan(4, 8, "x")
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
}
