package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// testCfg keeps experiment tests fast: graphs at 1/256 of Table 4 sizes.
func testCfg() Config { return Config{Scale: 256, Seed: 1, Layers: 2} }

func parseMS(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as ms: %v", s, err)
	}
	return v
}

func TestTable1MatchesPaperSpeeds(t *testing.T) {
	r, err := Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		got := parseMS(t, row[1])
		want := parseMS(t, row[2])
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("%s measured %.2f vs paper %.2f", row[0], got, want)
		}
	}
}

func TestTable2SlowLinksDominate(t *testing.T) {
	r, err := Table2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		nv, others := parseMS(t, row[1]), parseMS(t, row[2])
		if others <= nv {
			t.Errorf("%s: P2P 'others' time %.3f should dominate NVLink %.3f", row[0], others, nv)
		}
	}
}

func TestTable3ContentionShape(t *testing.T) {
	r, err := Table3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e18
	for _, row := range r.Rows {
		got := parseMS(t, row[1])
		want := parseMS(t, row[2])
		if got >= prev {
			t.Error("attainable bandwidth must fall with concurrency")
		}
		prev = got
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s flows: %.2f vs paper %.2f (>15%% off)", row[0], got, want)
		}
	}
}

func TestFigure2CommGrowsWithGPUs(t *testing.T) {
	r, err := Figure2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Per dataset, comm time at 16 GPUs should exceed comm at 2 GPUs, and the
	// comm share at 16 should be large (cross-machine IB).
	byDS := map[string][][]string{}
	for _, row := range r.Rows {
		byDS[row[0]] = append(byDS[row[0]], row)
	}
	for ds, rows := range byDS {
		first, last := rows[0], rows[len(rows)-1]
		if parseMS(t, last[3]) <= parseMS(t, first[3]) {
			t.Errorf("%s: comm time should grow from 2 to 16 GPUs (%s -> %s)", ds, first[3], last[3])
		}
		share := strings.TrimSuffix(last[4], "%")
		if v := parseMS(t, share); v < 50 {
			t.Errorf("%s: comm share at 16 GPUs only %v%%", ds, v)
		}
	}
}

func TestFigure4ReplicationShapes(t *testing.T) {
	r, err := Figure4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		h1, h2, h3 := parseMS(t, row[2]), parseMS(t, row[3]), parseMS(t, row[4])
		if !(h1 <= h2 && h2 <= h3) {
			t.Errorf("%s %s GPUs: factors not monotone in hops: %v %v %v", row[0], row[1], h1, h2, h3)
		}
		if h1 < 1 {
			t.Errorf("factor below 1: %v", h1)
		}
	}
	// Reddit at 8 GPUs, 2-hop should approach the GPU count (dense graph).
	for _, row := range r.Rows {
		if row[0] == "Reddit" && row[1] == "8" {
			if parseMS(t, row[3]) < 4 {
				t.Errorf("Reddit 8-GPU 2-hop factor %s should approach 8", row[3])
			}
		}
	}
}

// parseFig7Cell extracts total and comm ms from "12.34 (5.67)" or returns
// ok=false for OOM.
func parseFig7Cell(t *testing.T, cell string) (total, comm float64, ok bool) {
	t.Helper()
	if cell == "OOM" || cell == "n/a" {
		return 0, 0, false
	}
	parts := strings.SplitN(cell, " (", 2)
	total = parseMS(t, parts[0])
	comm = parseMS(t, strings.TrimSuffix(parts[1], ")"))
	return total, comm, true
}

func TestFigure7HeadlineShapes(t *testing.T) {
	r, err := Figure7(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows=%d want 12", len(r.Rows))
	}
	for _, row := range r.Rows {
		ds, model := row[0], row[1]
		dgclT, dgclC, ok := parseFig7Cell(t, row[2])
		if !ok {
			t.Fatalf("%s/%s: DGCL must never OOM", ds, model)
		}
		if _, swapC, ok := parseFig7Cell(t, row[3]); ok && swapC < dgclC {
			t.Errorf("%s/%s: swap comm %.3f beat DGCL %.3f", ds, model, swapC, dgclC)
		}
		p2pT, p2pC, ok := parseFig7Cell(t, row[4])
		if !ok {
			t.Fatalf("%s/%s: P2P must not OOM", ds, model)
		}
		if p2pC < dgclC {
			t.Errorf("%s/%s: P2P comm %.3f beat DGCL %.3f", ds, model, p2pC, dgclC)
		}
		if p2pT < dgclT*0.99 {
			t.Errorf("%s/%s: P2P total %.3f beat DGCL %.3f", ds, model, p2pT, dgclT)
		}
		// Replication OOM exactly on the two big graphs.
		_, _, replOK := parseFig7Cell(t, row[5])
		wantOOM := ds == "Com-Orkut" || ds == "Wiki-Talk"
		if replOK == wantOOM {
			t.Errorf("%s/%s: replication OOM=%v want %v", ds, model, !replOK, wantOOM)
		}
	}
}

func TestFigure8And9Shapes(t *testing.T) {
	for _, id := range []string{"fig8", "fig9"} {
		r, err := Run(id, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 5 {
			t.Fatalf("%s rows=%d", id, len(r.Rows))
		}
		for _, row := range r.Rows {
			k := row[0]
			if k == "1" {
				continue
			}
			dgclComm := parseMS(t, row[5])
			p2pComm := parseMS(t, row[6])
			if p2pComm < dgclComm*0.99 {
				t.Errorf("%s at %s GPUs: P2P comm %.3f beat DGCL %.3f", id, k, p2pComm, dgclComm)
			}
			if k == "2" || k == "4" {
				// All-NVLink: DGCL ~ P2P (within 40%).
				if dgclComm > 0 && p2pComm/dgclComm > 1.4 {
					t.Errorf("%s at %s GPUs (all NVLink): P2P %.3f vs DGCL %.3f should be close", id, k, p2pComm, dgclComm)
				}
			}
			if k == "8" {
				if dgclComm > 0 && p2pComm/dgclComm < 1.2 {
					t.Errorf("%s at %s GPUs: expected clear DGCL advantage, got P2P %.3f vs DGCL %.3f", id, k, p2pComm, dgclComm)
				}
			}
			if k == "16" {
				// At 16 GPUs both schemes serialize on the single IB link;
				// DGCL's remaining edge is multicast fusion (each vertex
				// crosses the NIC once), worth >=15% on sparse graphs.
				if dgclComm > 0 && p2pComm/dgclComm < 1.15 {
					t.Errorf("%s at %s GPUs: expected DGCL fusion advantage, got P2P %.3f vs DGCL %.3f", id, k, p2pComm, dgclComm)
				}
			}
		}
	}
}

func TestTable5DGCLRShapes(t *testing.T) {
	r, err := Table5(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][2]float64{}
	for _, row := range r.Rows {
		key := row[0] + "/" + row[1]
		vals[key] = [2]float64{parseMS(t, row[2]), parseMS(t, row[3])}
	}
	// Paper shape 1: DGCL-R beats DGCL for GCN on Web-Google (sparse graph,
	// comm-bound at 16 GPUs, cheap recompute).
	if v := vals["GCN/Web-Google"]; v[1] >= v[0] {
		t.Errorf("GCN/Web-Google: DGCL-R %.3f should beat DGCL %.3f", v[1], v[0])
	}
	// Paper shape 2: the recompute penalty erodes DGCL-R's advantage as the
	// model gets more compute-heavy — the DGCL-R/DGCL ratio must rise from
	// GCN to GIN on both datasets. (The absolute crossover point depends on
	// the compute/IB calibration; the penalty direction does not.)
	for _, ds := range []string{"Web-Google", "Reddit"} {
		gcn := vals["GCN/"+ds]
		gin := vals["GIN/"+ds]
		if gin[1]/gin[0] <= gcn[1]/gcn[0] {
			t.Errorf("%s: DGCL-R/DGCL ratio should rise from GCN (%.2f) to GIN (%.2f)",
				ds, gcn[1]/gcn[0], gin[1]/gin[0])
		}
	}
}

func TestTable6PCIeShapes(t *testing.T) {
	r, err := Table6(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Row order: DGCL, Swap, P2P; columns: 4 datasets. On the NVLink-less
	// fabric DGCL's edge comes only from contention avoidance and load
	// balancing, so demand: never meaningfully worse than P2P anywhere, and
	// strictly better on at least two datasets.
	wins := 0
	for col := 1; col <= 4; col++ {
		dgcl := parseMS(t, r.Rows[0][col])
		swap := parseMS(t, r.Rows[1][col])
		p2p := parseMS(t, r.Rows[2][col])
		if dgcl > p2p*1.05 {
			t.Errorf("col %d: DGCL %.3f more than 5%% slower than P2P %.3f on PCIe-only", col, dgcl, p2p)
		}
		if dgcl < p2p*0.95 {
			wins++
		}
		if col != 1 && swap < dgcl {
			// Reddit (col 1) is the one case swap can be competitive.
			t.Errorf("col %d: swap %.3f beat DGCL %.3f", col, swap, dgcl)
		}
	}
	if wins < 2 {
		t.Errorf("DGCL should clearly beat P2P on at least 2 of 4 datasets, won %d", wins)
	}
}

func TestFigure10Linear(t *testing.T) {
	r, err := Figure10(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "correlation") {
			parts := strings.Split(n, "= ")
			if v := parseMS(t, parts[len(parts)-1]); v < 0.98 {
				t.Errorf("cost model correlation %v below 0.98 (%s)", v, n)
			}
		}
	}
}

func TestTable7Balanced(t *testing.T) {
	r, err := Table7(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		diff := parseMS(t, strings.TrimSuffix(row[3], "%"))
		if diff > 60 {
			t.Errorf("%s: link class imbalance %v%% too high for SPST", row[0], diff)
		}
	}
}

func TestTable8PlanningTimesReasonable(t *testing.T) {
	r, err := Table8(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	var prevRow []float64
	for _, row := range r.Rows {
		var cur []float64
		for _, c := range row[1:] {
			v := parseMS(t, c)
			if v < 0 || v > 120 {
				t.Fatalf("planning time %v out of range", v)
			}
			cur = append(cur, v)
		}
		prevRow = cur
	}
	_ = prevRow
}

func TestTable9NonAtomicWins(t *testing.T) {
	r, err := Table9(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col <= 4; col++ {
		atomic := parseMS(t, r.Rows[0][col])
		nonAtomic := parseMS(t, r.Rows[1][col])
		if nonAtomic >= atomic {
			t.Errorf("col %d: non-atomic %.4f should beat atomic %.4f", col, nonAtomic, atomic)
		}
	}
}

func TestFigure11TinyTables(t *testing.T) {
	r, err := Figure11(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		for _, c := range row[1:] {
			if v := parseMS(t, c); v > 10 {
				t.Errorf("table memory ratio %v per mille too large", v)
			}
		}
	}
}

func TestRunRegistry(t *testing.T) {
	if _, err := Run("nope", testCfg()); err == nil {
		t.Fatal("unknown id must error")
	}
	for _, id := range All() {
		if id == "" {
			t.Fatal("empty id in registry")
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := r.String()
	if !strings.Contains(s, "== x: t ==") || !strings.Contains(s, "note: n") {
		t.Fatalf("render: %q", s)
	}
}

func TestAblationsShapes(t *testing.T) {
	r, err := Ablations(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		spst := parseMS(t, row[1])
		noFwd := parseMS(t, row[2])
		treeSrc := parseMS(t, row[3])
		steiner := parseMS(t, row[4])
		p2p := parseMS(t, row[5])
		if spst > noFwd*1.02 || spst > treeSrc*1.02 || spst > steiner*1.05 || spst > p2p*1.02 {
			t.Errorf("%s: SPST %.3f must win: noFwd %.3f treeSrc %.3f steiner %.3f p2p %.3f",
				row[0], spst, noFwd, treeSrc, steiner, p2p)
		}
		if overshoot := parseMS(t, row[6]); overshoot < 0.95 {
			t.Errorf("%s: NCCL volume overshoot %.2f below 1", row[0], overshoot)
		}
	}
}

func TestTable4DatasetShapes(t *testing.T) {
	r, err := Table4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		avg := parseMS(t, row[3])
		target := parseMS(t, row[4])
		// Dense generators hit the degree target within 3x; sparse ones have
		// floors at tiny scales.
		if avg > target*3.5 {
			t.Errorf("%s avg degree %v overshoots target %v", row[0], avg, target)
		}
		if row[6] != "true" {
			t.Errorf("%s should be symmetric", row[0])
		}
	}
}

func TestScalingShapes(t *testing.T) {
	r, err := Scaling(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for i, row := range r.Rows {
		dgcl := parseMS(t, row[2])
		p2p := parseMS(t, row[3])
		if dgcl > p2p*1.02 {
			t.Errorf("machines=%s: DGCL %.3f should not lose to P2P %.3f", row[0], dgcl, p2p)
		}
		// Dense Reddit stops scaling past one machine: multi-machine DGCL
		// comm exceeds single-machine comm.
		if i > 0 {
			if parseMS(t, row[4]) <= parseMS(t, r.Rows[0][4]) {
				t.Errorf("machines=%s: cross-machine comm should exceed single-machine", row[0])
			}
		}
	}
}

func TestMarkdownRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	md := r.Markdown()
	for _, want := range []string{"## x: t", "| a | b |", "|---|---|", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
