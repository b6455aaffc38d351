package core

import (
	"bytes"
	"strings"
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	g := graph.CommunityGraph(400, 12, 4, 0.8, 1)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 1})
	rel, _ := comm.Build(g, p)
	plan, _, err := PlanSPST(rel, topology.DGX1(), 256, SPSTOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != plan.K || got.BytesPerVertex != plan.BytesPerVertex || got.Algorithm != plan.Algorithm {
		t.Fatal("header changed in roundtrip")
	}
	if got.NumStages() != plan.NumStages() || got.TotalBytes() != plan.TotalBytes() {
		t.Fatal("stages changed in roundtrip")
	}
	// The deserialized plan still validates against the relation.
	if err := got.Validate(rel); err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(topology.DGX1())
	if CostOfPlan(m, got) != CostOfPlan(m, plan) {
		t.Fatal("cost changed in roundtrip")
	}
}

func TestReadPlanJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"k":0,"bytes_per_vertex":4,"stages":[]}`,
		`{"k":4,"bytes_per_vertex":0,"stages":[]}`,
		`{"k":4,"bytes_per_vertex":4,"stages":[[{"Src":0,"Dst":9,"Vertices":[1]}]]}`,
		`{"k":4,"bytes_per_vertex":4,"stages":[[{"Src":2,"Dst":2,"Vertices":[1]}]]}`,
	}
	for _, c := range cases {
		if _, err := ReadPlanJSON(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

func TestComputeStats(t *testing.T) {
	p := NewPlan(4, 100, "t")
	p.Stages = [][]Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2}}, {Src: 0, Dst: 2, Vertices: []int32{1}}},
		{{Src: 1, Dst: 3, Vertices: []int32{1}}},
	}
	owner := []int32{3, 0, 0, 0} // vertices 1,2 owned by GPU0
	s := p.ComputeStats(owner)
	if s.Stages != 2 || s.Transfers != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.VertexSends != 4 {
		t.Fatalf("vertex sends %d", s.VertexSends)
	}
	if s.UniqueDelivered != 4 { // (1,v1) (1,v2) (2,v1) (3,v1)
		t.Fatalf("unique %d", s.UniqueDelivered)
	}
	if s.RelayedSends != 1 { // GPU1 forwards vertex 1 it does not own
		t.Fatalf("relayed %d", s.RelayedSends)
	}
	if s.MaxFanoutPerGPU != 2 { // GPU0 sends twice in stage 1
		t.Fatalf("fanout %d", s.MaxFanoutPerGPU)
	}
	if s.BytesTotal != 400 || s.TableBytes != 4*4*2 {
		t.Fatalf("bytes %d tables %d", s.BytesTotal, s.TableBytes)
	}
}
