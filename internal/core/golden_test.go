package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

// Golden-plan regression tests: the planner's exact output for fixed seeded
// workloads is pinned byte-for-byte against JSON files in testdata/golden.
// Any change to shuffling, tie-breaking, cost arithmetic or serialization
// shows up as a diff here — deliberate planner changes must regenerate the
// files with
//
//	go test ./internal/core/ -run TestGoldenPlans -update
//
// and justify the diff in review.

var updateGolden = flag.Bool("update", false, "rewrite golden plan files instead of comparing")

// goldenCases are the pinned workloads: one community graph on the DGX-1 and
// one power-law graph on the two-machine fabric, across the planner's default
// and chunk-size settings and both ablations.
func goldenCases(t *testing.T) []struct {
	name string
	rel  relTopo
	opts SPSTOptions
} {
	t.Helper()
	dgx := relTopo{topo: topology.DGX1()}
	dgx.rel = partitionFor(t, graph.CommunityGraph(500, 12, 8, 0.85, 11), dgx.topo, 11)
	dual := relTopo{topo: topology.TwoMachineDGX1()}
	dual.rel = partitionFor(t, graph.RMAT(512, 4096, 0.57, 0.19, 0.19, 11), dual.topo, 11)
	return []struct {
		name string
		rel  relTopo
		opts SPSTOptions
	}{
		{"community-dgx1-serial", dgx, SPSTOptions{Seed: 11}},
		{"community-dgx1-chunk4", dgx, SPSTOptions{Seed: 11, ChunkSize: 4}},
		{"community-dgx1-noforward", dgx, SPSTOptions{Seed: 11, DisableForwarding: true}},
		{"community-dgx1-sourcetree", dgx, SPSTOptions{Seed: 11, TreePerSource: true}},
		{"rmat-dual16-serial", dual, SPSTOptions{Seed: 11}},
	}
}

type relTopo struct {
	rel  *comm.Relation
	topo *topology.Topology
}

func TestGoldenPlans(t *testing.T) {
	for _, tc := range goldenCases(t) {
		plan, _, err := PlanSPST(tc.rel.rel, tc.rel.topo, 1024, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := planJSONBytes(t, plan)
		path := filepath.Join("testdata", "golden", tc.name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with -update to create): %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: plan differs from golden file %s (rerun with -update if the change is deliberate)",
				tc.name, path)
		}
	}
}

// TestGoldenPlansAreValid guards the golden files themselves: each must
// deserialize and validate against its relation, so a stale or hand-edited
// file cannot silently become the reference.
func TestGoldenPlansAreValid(t *testing.T) {
	for _, tc := range goldenCases(t) {
		path := filepath.Join("testdata", "golden", tc.name+".json")
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plan, err := ReadPlanJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: golden file does not deserialize: %v", tc.name, err)
		}
		if err := plan.Validate(tc.rel.rel); err != nil {
			t.Errorf("%s: golden plan invalid for its relation: %v", tc.name, err)
		}
	}
}

// serialDigest pins one serial plan: the FNV-64a of its canonical JSON and
// the exact bits of the planner's final State.Cost().
type serialDigest struct {
	Plan string `json:"plan"`
	Cost string `json:"cost"`
}

// TestGoldenSerialDigests pins planSerial over the 30 seeded (relation,
// topology, bytes) triples of seededTriples. The digests in
// testdata/golden/serial_digests.json come from a serial Dijkstra that
// queried every neighbour, so they show the dominated-neighbour skip is
// exact — same plan bytes, same cost bits — on every triple; they also pin
// the partitions the relations are built from.
func TestGoldenSerialDigests(t *testing.T) {
	path := filepath.Join("testdata", "golden", "serial_digests.json")
	got := map[string]serialDigest{}
	for _, tr := range seededTriples(t) {
		plan, state, err := PlanSPST(tr.rel, tr.topo, 1024, SPSTOptions{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		h := fnv.New64a()
		h.Write(planJSONBytes(t, plan))
		got[tr.name] = serialDigest{
			Plan: fmt.Sprintf("%016x", h.Sum64()),
			Cost: fmt.Sprintf("%016x", math.Float64bits(state.Cost())),
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := map[string]serialDigest{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file pins %d triples, battery has %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: plan/cost digest %v, golden %v", name, g, w)
		}
	}
}

// TestPinnedOrkut16Serial pins planSerial on setup-orkut16's shape (the
// scaled Com-Orkut graph, hierarchically partitioned 8+8 over the
// two-machine DGX-1 fabric) at two row widths: the FNV-64a of the plan JSON
// and the exact bits of the final State.Cost(). The values were captured
// before the hop-time table replaced per-query division, so they show the
// table prices every relaxation exactly as the division did.
func TestPinnedOrkut16Serial(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the 16-GPU Com-Orkut shape twice (seconds)")
	}
	topo := topology.TwoMachineDGX1()
	rel := partitionFor(t, graph.ComOrkut.Generate(128, 1), topo, 1)
	for _, pin := range []struct {
		bytesPerVertex int64
		want           serialDigest
	}{
		{128, serialDigest{Plan: "48f4b5f0f19b335a", Cost: "3f30d6707be0e6bd"}},
		{1024, serialDigest{Plan: "1e7e8b82cacad738", Cost: "3f60d6707be0e6bd"}},
	} {
		plan, state, err := PlanSPST(rel, topo, pin.bytesPerVertex, SPSTOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(planJSONBytes(t, plan))
		got := serialDigest{
			Plan: fmt.Sprintf("%016x", h.Sum64()),
			Cost: fmt.Sprintf("%016x", math.Float64bits(state.Cost())),
		}
		if got != pin.want {
			t.Errorf("%d B/vertex: plan/cost digest %v, pinned %v", pin.bytesPerVertex, got, pin.want)
		}
	}
}

// planTriple is one seeded (graph, topology, partition) workload.
type planTriple struct {
	name string
	rel  *comm.Relation
	topo *topology.Topology
}

// partitionFor partitions the graph to match the topology (hierarchically
// across machines, like dgcl.BuildCommInfo).
func partitionFor(tb testing.TB, g *graph.Graph, topo *topology.Topology, seed int64) *comm.Relation {
	tb.Helper()
	k := topo.NumGPUs()
	var p *partition.Partition
	var err error
	if topo.NumMachines() > 1 {
		per := make([]int, topo.NumMachines())
		for d := 0; d < k; d++ {
			per[topo.GPUMachine(d)]++
		}
		p, err = partition.Hierarchical(g, per, partition.Options{Seed: seed})
	} else {
		p, err = partition.KWay(g, k, partition.Options{Seed: seed})
	}
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// seededTriples builds the 30 seeded triples of the digest battery: five
// graph families spanning community, power-law, locality and uniform degree
// structure, three fabrics (4-GPU quad, DGX-1, two-machine 16-GPU), two
// partition seeds each.
func seededTriples(tb testing.TB) []planTriple {
	tb.Helper()
	graphs := []struct {
		name string
		gen  func(seed int64) *graph.Graph
	}{
		{"community", func(s int64) *graph.Graph { return graph.CommunityGraph(700, 12, 8, 0.8, s) }},
		{"rmat", func(s int64) *graph.Graph { return graph.RMAT(512, 4096, 0.57, 0.19, 0.19, s) }},
		{"locality", func(s int64) *graph.Graph { return graph.LocalityGraph(800, 10, s) }},
		{"chunglu", func(s int64) *graph.Graph { return graph.ChungLu(600, 8, 2.5, s) }},
		{"erdos", func(s int64) *graph.Graph { return graph.ErdosRenyi(500, 3000, s) }},
	}
	topos := []struct {
		name string
		topo *topology.Topology
	}{
		{"quad4", topology.SubDGX1(4)},
		{"dgx1", topology.DGX1()},
		{"dual16", topology.TwoMachineDGX1()},
	}
	var out []planTriple
	for _, gg := range graphs {
		for _, tt := range topos {
			for seed := int64(1); seed <= 2; seed++ {
				g := gg.gen(seed)
				out = append(out, planTriple{
					name: fmt.Sprintf("%s-%s-s%d", gg.name, tt.name, seed),
					rel:  partitionFor(tb, g, tt.topo, seed),
					topo: tt.topo,
				})
			}
		}
	}
	return out
}

// planJSONBytes canonically serializes a plan for byte comparison.
func planJSONBytes(tb testing.TB, p *Plan) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
