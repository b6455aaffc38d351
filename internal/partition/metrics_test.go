package partition

import (
	"strings"
	"testing"

	"dgcl/internal/graph"
)

func TestCommVolumeOnRing(t *testing.T) {
	g := graph.Ring(8)
	p := Range(g, 4)
	// Each part references 2 remote vertices.
	if got := CommVolume(g, p); got != 8 {
		t.Fatalf("CommVolume=%d want 8", got)
	}
}

func TestCommVolumeDedupsMultiEdges(t *testing.T) {
	// Two vertices in part 0 both reference the same remote vertex: counts
	// once, while the edge cut counts twice.
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}, false)
	p := &Partition{K: 2, Assign: []int32{0, 0, 1}}
	if got := CommVolume(g, p); got != 1 {
		t.Fatalf("CommVolume=%d want 1", got)
	}
	if p.EdgeCut(g) != 2 {
		t.Fatal("edge cut should be 2")
	}
}

func TestEvaluateAndString(t *testing.T) {
	g := graph.Grid2D(10, 10)
	p, err := KWay(g, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, p)
	if q.EdgeCut <= 0 || q.CommVolume <= 0 || q.Balance < 1 {
		t.Fatalf("quality %+v", q)
	}
	if q.CutPercent <= 0 || q.CutPercent >= 100 {
		t.Fatalf("cut percent %v", q.CutPercent)
	}
	if !strings.Contains(q.String(), "balance") {
		t.Fatal("String missing fields")
	}
}
