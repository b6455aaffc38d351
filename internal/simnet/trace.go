package simnet

import (
	"fmt"
	"io"
	"sort"

	"dgcl/internal/core"
)

// Flow tracing: RunPlanTraced records one entry per simulated transfer so
// plans can be inspected or visualized offline (who sent what when, over
// which bottleneck, at what achieved bandwidth).

// FlowTrace describes one simulated transfer.
type FlowTrace struct {
	Stage      int     // 1-based stage number
	Src, Dst   int     // GPU ids
	Bytes      int64   // payload size
	Start, End float64 // virtual seconds relative to plan start
	Bandwidth  float64 // achieved bytes/second (0 for empty flows)
}

// Trace is the recorded timeline of a plan execution.
type Trace struct {
	Flows     []FlowTrace
	TotalTime float64
}

// RunPlanTraced simulates the plan like RunPlan while recording a per-flow
// timeline.
func (n *Network) RunPlanTraced(p *core.Plan) (*Result, *Trace, error) {
	tr := &Trace{}
	res, err := n.run(p.Stages, p.BytesPerVertex, 1, tr)
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// record appends one stage's flows, started at virtual time start; flows[i]
// carries transfers[i].
func (t *Trace) record(stage int, transfers []core.Transfer, flows []*flow, bytesPerVertex int64, start float64) {
	for i, f := range flows {
		ft := FlowTrace{
			Stage: stage,
			Src:   transfers[i].Src, Dst: transfers[i].Dst,
			Bytes: int64(len(transfers[i].Vertices)) * bytesPerVertex,
			Start: start, End: start + f.done,
		}
		if f.done > 0 && ft.Bytes > 0 {
			ft.Bandwidth = float64(ft.Bytes) / f.done
		}
		t.Flows = append(t.Flows, ft)
	}
}

// WriteCSV emits the trace as CSV (stage,src,dst,bytes,start_us,end_us,gbps).
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "stage,src,dst,bytes,start_us,end_us,gbps"); err != nil {
		return err
	}
	for _, f := range t.Flows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.3f,%.3f,%.3f\n",
			f.Stage, f.Src, f.Dst, f.Bytes, f.Start*1e6, f.End*1e6, f.Bandwidth/1e9); err != nil {
			return err
		}
	}
	return nil
}

// SlowestFlows returns the n flows with the latest end times, slowest last
// finisher first — the stragglers that set stage makespans.
func (t *Trace) SlowestFlows(n int) []FlowTrace {
	out := make([]FlowTrace, len(t.Flows))
	copy(out, t.Flows)
	sort.Slice(out, func(i, j int) bool { return out[i].End > out[j].End })
	if n < len(out) {
		out = out[:n]
	}
	return out
}
