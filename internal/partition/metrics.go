package partition

import (
	"fmt"

	"dgcl/internal/graph"
)

// CommVolume returns the total communication volume of one graphAllgather
// under the partition, in vertex copies: for every part, the number of
// distinct vertices of other parts its vertices reference. Unlike the edge
// cut, a boundary vertex referenced by many edges of the same remote part
// counts once — this is exactly |∪ V_r_d| summed over GPUs, the quantity the
// paper's communication relation moves.
func CommVolume(g *graph.Graph, p *Partition) int64 {
	seen := make([]map[int32]bool, p.K)
	for d := range seen {
		seen[d] = make(map[int32]bool)
	}
	for u := 0; u < g.NumVertices(); u++ {
		du := p.Assign[u]
		for _, v := range g.Neighbors(int32(u)) {
			if p.Assign[v] != du {
				seen[du][v] = true
			}
		}
	}
	var total int64
	for d := range seen {
		total += int64(len(seen[d]))
	}
	return total
}

// Quality bundles the metrics a partitioning is judged by.
type Quality struct {
	EdgeCut    int64
	CutPercent float64
	CommVolume int64
	Balance    float64
}

// Evaluate computes the quality metrics of p over g.
func Evaluate(g *graph.Graph, p *Partition) Quality {
	cut := p.EdgeCut(g)
	pct := 0.0
	if g.NumEdges() > 0 {
		pct = 100 * float64(cut) / float64(g.NumEdges())
	}
	return Quality{
		EdgeCut:    cut,
		CutPercent: pct,
		CommVolume: CommVolume(g, p),
		Balance:    p.Balance(),
	}
}

// String renders the quality metrics.
func (q Quality) String() string {
	return fmt.Sprintf("cut %d (%.1f%%), comm volume %d, balance %.3f",
		q.EdgeCut, q.CutPercent, q.CommVolume, q.Balance)
}
