package simnet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

func tracedPlan(t *testing.T) (*Network, *core.Plan) {
	t.Helper()
	g := graph.CommunityGraph(500, 12, 4, 0.8, 1)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 1})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	plan, _, err := core.PlanSPST(rel, topo, 512, core.SPSTOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := exactNet(t, topo)
	return n, plan
}

func TestRunPlanTracedConsistent(t *testing.T) {
	n, plan := tracedPlan(t)
	res, tr, err := n.RunPlanTraced(plan)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := n.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != plain.Time {
		t.Fatalf("traced time %v != plain %v", res.Time, plain.Time)
	}
	if tr.TotalTime != res.Time {
		t.Fatal("trace total mismatch")
	}
	if len(tr.Flows) != res.Flows {
		t.Fatalf("trace has %d flows, result %d", len(tr.Flows), res.Flows)
	}
	// Flow invariants: end >= start, flows fit inside the total, bytes match
	// the plan.
	var total int64
	for _, f := range tr.Flows {
		if f.End < f.Start {
			t.Fatalf("flow ends before start: %+v", f)
		}
		if f.End > tr.TotalTime+1e-12 {
			t.Fatalf("flow ends after plan: %+v (total %v)", f, tr.TotalTime)
		}
		if f.Stage < 1 || f.Stage > plan.NumStages() {
			t.Fatalf("bad stage %d", f.Stage)
		}
		total += f.Bytes
	}
	if total != plan.TotalBytes() {
		t.Fatalf("trace bytes %d != plan %d", total, plan.TotalBytes())
	}
	// Stages do not overlap: every stage-2 flow starts at or after every
	// stage-1 flow's stage window.
	var stage1End float64
	for _, f := range tr.Flows {
		if f.Stage == 1 && f.End > stage1End {
			stage1End = f.End
		}
	}
	for _, f := range tr.Flows {
		if f.Stage == 2 && f.Start < stage1End-1e-12 {
			t.Fatalf("stage 2 flow starts before stage 1 finished: %+v", f)
		}
	}
}

func TestTraceCSVAndQueries(t *testing.T) {
	n, plan := tracedPlan(t)
	_, tr, err := n.RunPlanTraced(plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tr.Flows)+1 {
		t.Fatalf("csv lines %d want %d", len(lines), len(tr.Flows)+1)
	}
	if !strings.HasPrefix(lines[0], "stage,src,dst") {
		t.Fatalf("bad header %q", lines[0])
	}
	slow := tr.SlowestFlows(3)
	if len(slow) != 3 {
		t.Fatalf("slowest=%d", len(slow))
	}
	if slow[0].End < slow[1].End || slow[1].End < slow[2].End {
		t.Fatal("slowest flows not sorted")
	}
}

func TestGanttRendering(t *testing.T) {
	n, plan := tracedPlan(t)
	_, tr, err := n.RunPlanTraced(plan)
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Gantt(40)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != len(tr.Flows)+1 {
		t.Fatalf("gantt lines %d want %d", len(lines), len(tr.Flows)+1)
	}
	if !strings.Contains(lines[0], "stage 1") || !strings.Contains(lines[0], "#") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], "total:") {
		t.Fatal("missing total line")
	}
	// Stage ordering: stage numbers are non-decreasing down the chart.
	prev := 0
	for _, l := range lines[:len(lines)-1] {
		var st int
		if _, err := fmt.Sscanf(l, "stage %d", &st); err != nil {
			t.Fatalf("unparseable line %q", l)
		}
		if st < prev {
			t.Fatal("stages out of order")
		}
		prev = st
	}
	// Degenerate traces render too.
	empty := &Trace{}
	if !strings.Contains(empty.Gantt(40), "no flows") {
		t.Fatal("empty trace rendering")
	}
}
