// Package simnet is a virtual-time network simulator for the GPU fabrics of
// package topology. It stands in for the paper's physical testbed (see
// DESIGN.md): given a staged communication plan it simulates the concurrent
// flows of each stage with max-min fair bandwidth sharing on every physical
// hop, contention efficiency calibrated to Table 3 of the paper, per-channel
// message latency, and optional jitter. Its reported times are the
// simulated communication times of every experiment in EXPERIMENTS.md.
package simnet

import (
	"fmt"
	"math"
	"math/rand"

	"dgcl/internal/baselines"
	"dgcl/internal/core"
	"dgcl/internal/topology"
)

// Config tunes the simulator.
type Config struct {
	// Seed drives jitter; the same seed reproduces identical timings.
	Seed int64
	// Jitter is the relative standard deviation of per-flow noise (0 = exact).
	Jitter float64
	// ContentionExponent e models sub-linear per-flow bandwidth under n-way
	// sharing: per-flow rate = B / n^e. e=0.95 reproduces the paper's Table 3
	// QPI measurements (9.50 / 5.12 / 3.34 GB/s for 1/2/3 GPUs).
	ContentionExponent float64
	// LatencyScale multiplies the per-class base latencies (1 = default).
	LatencyScale float64
	// Centralized switches the stage-boundary coordination model from the
	// decentralized ready/done flags of §6.1 (cheap) to master round-trips
	// (expensive, per-stage straggler wait), for the ablation.
	Centralized bool
	// AtomicFactor is the slowdown of receive-side processing when the
	// backward pass uses atomic gradient accumulation (§6.2), priced only by
	// RunBackward(p, false). 1.35 matches Table 9's shape. Ignored for
	// forward passes.
	AtomicFactor float64
}

// DefaultConfig returns the calibrated configuration used by the experiment
// harness.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		Jitter:             0.02,
		ContentionExponent: 0.95,
		LatencyScale:       1,
		AtomicFactor:       1.35,
	}
}

// withDefaults fills only the fields whose zero value is meaningless;
// LatencyScale and Jitter are taken literally (0 = none), so analytic tests
// can disable them.
func (c Config) withDefaults() Config {
	if c.ContentionExponent == 0 {
		c.ContentionExponent = 0.95
	}
	if c.AtomicFactor == 0 {
		c.AtomicFactor = 1.35
	}
	return c
}

// Base per-message latencies by channel class, in seconds. These model the
// §6.2 transport selection: CUDA virtual memory for same-socket pairs,
// pinned host memory across sockets, helper thread + NIC across machines.
var classLatency = map[topology.ChannelClass]float64{
	topology.ClassNVLink:       5e-6,
	topology.ClassSameSocket:   10e-6,
	topology.ClassCrossSocket:  15e-6,
	topology.ClassCrossMachine: 30e-6,
	topology.ClassHostSwap:     12e-6,
}

// Coordination overheads per stage boundary, in seconds.
const (
	decentralizedFlagCost = 2e-6  // peers poll each other's ready/done flags
	centralizedRoundTrip  = 25e-6 // master notification + straggler wait
)

// Network simulates one fabric.
type Network struct {
	topo *topology.Topology
	cfg  Config
	rng  *rand.Rand
	// Precomputed directed hop chains and latency per ordered GPU pair.
	hops    [][][]topology.DirectedHop
	latency [][]float64
	// Host swap channels per GPU.
	hostHops    [][]topology.DirectedHop
	hostLatency []float64
}

// New builds a simulator for the topology.
func New(topo *topology.Topology, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	k := topo.NumGPUs()
	n := &Network{
		topo: topo, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		hops: make([][][]topology.DirectedHop, k), latency: make([][]float64, k),
		hostHops: make([][]topology.DirectedHop, k), hostLatency: make([]float64, k),
	}
	for s := 0; s < k; s++ {
		n.hops[s] = make([][]topology.DirectedHop, k)
		n.latency[s] = make([]float64, k)
		for d := 0; d < k; d++ {
			if s == d {
				continue
			}
			ch, err := topo.GPUChannel(s, d)
			if err != nil {
				return nil, err
			}
			n.hops[s][d] = topo.DirectedHops(ch)
			n.latency[s][d] = classLatency[ch.Class] * cfg.LatencyScale
		}
		hch, err := topo.HostChannel(s)
		if err == nil {
			n.hostHops[s] = topo.DirectedHops(hch)
			n.hostLatency[s] = classLatency[topology.ClassHostSwap] * cfg.LatencyScale
		}
	}
	return n, nil
}

// flow is one concurrent transfer within a stage.
type flow struct {
	hops    []topology.DirectedHop
	bytes   float64
	latency float64
	nvOnly  bool // all hops NVLink (for link-class breakdowns)
	done    float64
}

// Result reports the outcome of simulating one plan execution.
type Result struct {
	Time       float64   // total virtual seconds
	StageTimes []float64 // per stage
	// NVLinkTime and OtherTime decompose each stage into the completion time
	// of NVLink-only flows versus flows touching slower links (Tables 2, 7).
	NVLinkTime, OtherTime float64
	BytesMoved            int64
	Flows                 int
}

// addStage books one finished stage of t seconds, boundary cost included,
// whose NVLink-only and other flows finished after nv and ot seconds.
func (r *Result) addStage(t, nv, ot float64) {
	r.StageTimes = append(r.StageTimes, t)
	r.Time += t
	r.NVLinkTime += nv
	r.OtherTime += ot
}

// simulateStage runs one set of concurrent flows to completion with max-min
// fair sharing and returns the stage makespan plus the per-class makespans.
func (n *Network) simulateStage(flows []*flow) (total, nvTime, otherTime float64) {
	if len(flows) == 0 {
		return 0, 0, 0
	}
	numSlots := 2 * len(n.topo.Conns())
	remaining := make([]float64, len(flows))
	active := 0
	for i, f := range flows {
		remaining[i] = f.bytes
		if f.bytes > 0 {
			active++
		} else {
			f.done = f.latency
		}
	}
	now := 0.0
	rates := make([]float64, len(flows))
	for active > 0 {
		n.fairShare(flows, remaining, rates, numSlots)
		// Advance to the next completion.
		dt := math.Inf(1)
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			if rates[i] <= 0 {
				continue
			}
			if t := remaining[i] / rates[i]; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			break // no progress possible (disconnected flow); avoid hanging
		}
		now += dt
		for i, f := range flows {
			if remaining[i] <= 0 {
				continue
			}
			remaining[i] -= rates[i] * dt
			if remaining[i] <= 1e-9 {
				remaining[i] = 0
				f.done = now + f.latency
				active--
			}
		}
	}
	for _, f := range flows {
		if f.done > total {
			total = f.done
		}
		if f.nvOnly {
			if f.done > nvTime {
				nvTime = f.done
			}
		} else if f.done > otherTime {
			otherTime = f.done
		}
	}
	return total, nvTime, otherTime
}

// fairShare computes max-min fair rates for the unfinished flows. Each
// directed hop h with n_h unfrozen flows offers them B_h * n_h^(1-e) / n_h
// each (aggregate B_h * n_h^(1-e+...)); with e = ContentionExponent the
// per-flow ceiling on a saturated hop is B_h / n_h^e, reproducing Table 3.
func (n *Network) fairShare(flows []*flow, remaining, rates []float64, numSlots int) {
	hopFlows := make([][]int, numSlots)
	counts := make([]int, numSlots)
	for i, f := range flows {
		if remaining[i] <= 0 {
			rates[i] = 0
			continue
		}
		rates[i] = -1
		for _, h := range f.hops {
			s := h.Slot()
			hopFlows[s] = append(hopFlows[s], i)
			counts[s]++
		}
	}
	// Effective aggregate capacity of a hop shared by c flows. The measured
	// Table 3 numbers show aggregate throughput growing mildly with 2-3
	// concurrent flows (duplex and pipelining effects); that superlinearity
	// saturates, so it is capped at 4 flows — schemes that spray dozens of
	// concurrent flows over one hop gain nothing further.
	effCap := func(slot int) float64 {
		c := counts[slot]
		if c == 0 {
			return 0
		}
		if c > 4 {
			c = 4
		}
		b := n.topo.Conn(slot / 2).Bandwidth
		return b * math.Pow(float64(c), 1-n.cfg.ContentionExponent)
	}
	frozen := make([]bool, len(flows))
	used := make([]float64, numSlots)
	unfrozenOnHop := make([]int, numSlots)
	copy(unfrozenOnHop, counts)
	for {
		// Find the tightest hop: min fair share among hops with unfrozen flows.
		bestSlot, bestShare := -1, math.Inf(1)
		for s := 0; s < numSlots; s++ {
			if unfrozenOnHop[s] == 0 {
				continue
			}
			share := (effCap(s) - used[s]) / float64(unfrozenOnHop[s])
			if share < bestShare {
				bestShare, bestSlot = share, s
			}
		}
		if bestSlot < 0 {
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		// Freeze every unfrozen flow on the tightest hop at the fair share.
		for _, fi := range hopFlows[bestSlot] {
			if frozen[fi] || remaining[fi] <= 0 {
				continue
			}
			frozen[fi] = true
			rates[fi] = bestShare
			for _, h := range flows[fi].hops {
				s := h.Slot()
				used[s] += bestShare
				unfrozenOnHop[s]--
			}
		}
	}
}

// jitter returns a multiplicative noise factor around 1.
func (n *Network) jitter() float64 {
	if n.cfg.Jitter <= 0 {
		return 1
	}
	f := 1 + n.rng.NormFloat64()*n.cfg.Jitter
	if f < 0.5 {
		f = 0.5
	}
	return f
}

func (n *Network) stageBoundaryCost() float64 {
	if n.cfg.Centralized {
		return centralizedRoundTrip * n.cfg.LatencyScale
	}
	return decentralizedFlagCost * n.cfg.LatencyScale
}

func (n *Network) planFlows(transfers []core.Transfer, bytesPerVertex int64, overhead float64, res *Result) ([]*flow, error) {
	var flows []*flow
	for _, t := range transfers {
		if t.Src == t.Dst || t.Src < 0 || t.Dst < 0 || t.Src >= n.topo.NumGPUs() || t.Dst >= n.topo.NumGPUs() {
			return nil, fmt.Errorf("simnet: bad transfer %d->%d", t.Src, t.Dst)
		}
		b := int64(len(t.Vertices)) * bytesPerVertex
		res.BytesMoved += b
		hops := n.hops[t.Src][t.Dst]
		nvOnly := len(hops) > 0
		for _, h := range hops {
			if !n.topo.Conn(h.Conn).Type.IsNVLink() {
				nvOnly = false
			}
		}
		flows = append(flows, &flow{
			hops:    hops,
			bytes:   float64(b) * overhead * n.jitter(),
			latency: n.latency[t.Src][t.Dst],
			nvOnly:  nvOnly,
		})
	}
	res.Flows += len(flows)
	return flows, nil
}

// run is the one stage loop behind RunPlan, RunBackward and RunPlanTraced.
// Each stage runs as one concurrent flow set whose bytes are scaled by
// overhead and pays the stage boundary cost. A non-nil tr records every flow
// on the stage timeline.
func (n *Network) run(stages [][]core.Transfer, bytesPerVertex int64, overhead float64, tr *Trace) (*Result, error) {
	res := &Result{}
	for si, stage := range stages {
		flows, err := n.planFlows(stage, bytesPerVertex, overhead, res)
		if err != nil {
			return nil, err
		}
		t, nv, ot := n.simulateStage(flows)
		if tr != nil {
			tr.record(si+1, stage, flows, bytesPerVertex, res.Time)
		}
		res.addStage(t+n.stageBoundaryCost(), nv, ot)
	}
	if tr != nil {
		tr.TotalTime = res.Time
	}
	return res, nil
}

// RunPlan simulates the forward graphAllgather of a staged plan and returns
// the virtual-time result.
func (n *Network) RunPlan(p *core.Plan) (*Result, error) {
	return n.run(p.Stages, p.BytesPerVertex, 1, nil)
}

// RunBackward simulates the backward gradient exchange over
// p.BackwardSchedule(), the forward stages reversed with roles swapped.
// nonAtomic=true prices the single-writer schedule the runtime runs: each
// receiver adds its gradients serially, at no extra cost. nonAtomic=false
// prices the same stages with atomic accumulation, every byte scaled by
// Config.AtomicFactor (Table 9's "Atomic" row).
func (n *Network) RunBackward(p *core.Plan, nonAtomic bool) (*Result, error) {
	overhead := 1.0
	if !nonAtomic {
		overhead = n.cfg.AtomicFactor
	}
	return n.run(p.BackwardSchedule(), p.BytesPerVertex, overhead, nil)
}

// EpochComm simulates one training epoch's communication for plan p: a
// forward allgather per layer at that layer's input width (dims[l] float32
// values per vertex), and a backward gradient exchange per layer after the
// first, priced as the single-writer schedule the runtime runs (the layer-0
// feature gradient is discarded, so a K-layer epoch runs K forward and K-1
// backward exchanges). skipFirstForward leaves out the layer-0 forward,
// which a trainer runs in its first epoch only (it aggregates the
// unchanging features once). It returns per-layer times in seconds; a layer
// that runs no exchange in a direction reports 0 there. Layers run in
// order, forward before backward.
func (n *Network) EpochComm(p *core.Plan, dims []int, skipFirstForward bool) (fwd, bwd []float64, err error) {
	fwd = make([]float64, len(dims))
	bwd = make([]float64, len(dims))
	for l, dim := range dims {
		q := *p
		q.BytesPerVertex = int64(dim) * 4
		if !(skipFirstForward && l == 0) {
			res, err := n.RunPlan(&q)
			if err != nil {
				return nil, nil, err
			}
			fwd[l] = res.Time
		}
		if l > 0 {
			res, err := n.RunBackward(&q, true)
			if err != nil {
				return nil, nil, err
			}
			bwd[l] = res.Time
		}
	}
	return fwd, bwd, nil
}

// RunSwap simulates the NeuGraph-style swap exchange: a dump phase (all GPUs
// write their local embeddings to host memory), an optional cross-machine
// host synchronization, and a load phase (all GPUs read their remote sets).
func (n *Network) RunSwap(sp *baselines.SwapPlan) (*Result, error) {
	res := &Result{}
	// phase runs one host-memory phase: every GPU with bytes to move writes
	// them to (toHost) or reads them from its host.
	phase := func(bytes []int64, toHost bool) {
		var flows []*flow
		for d, b := range bytes {
			if b == 0 || len(n.hostHops[d]) == 0 {
				continue
			}
			hops := n.hostHops[d]
			if !toHost {
				hops = reverseHops(hops)
			}
			flows = append(flows, &flow{
				hops:    hops,
				bytes:   float64(b) * n.jitter(),
				latency: n.hostLatency[d],
			})
			res.BytesMoved += b
		}
		t, nv, ot := n.simulateStage(flows)
		res.addStage(t+n.stageBoundaryCost(), nv, ot)
		res.Flows += len(flows)
	}
	phase(sp.WriteBytes, true)

	var cross int64
	for _, b := range sp.CrossBytes {
		cross += b
	}
	if cross > 0 {
		ct := float64(cross)/topology.IB.Bandwidth() + classLatency[topology.ClassCrossMachine]*n.cfg.LatencyScale
		res.addStage(ct, 0, ct)
		res.BytesMoved += cross
	}
	phase(sp.ReadBytes, false)
	return res, nil
}

func reverseHops(h []topology.DirectedHop) []topology.DirectedHop {
	out := make([]topology.DirectedHop, len(h))
	for i, d := range h {
		out[len(h)-1-i] = topology.DirectedHop{Conn: d.Conn, Forward: !d.Forward}
	}
	return out
}

// MeasureFlows simulates a set of ad-hoc point-to-point transfers of `bytes`
// each, all starting together (used by the Table 1 and Table 3 micro
// benchmarks). It returns each flow's achieved bandwidth in bytes/second.
func (n *Network) MeasureFlows(pairs [][2]int, bytes int64) ([]float64, error) {
	var flows []*flow
	for _, p := range pairs {
		if p[0] == p[1] {
			return nil, fmt.Errorf("simnet: measurement flow to self")
		}
		flows = append(flows, &flow{
			hops:    n.hops[p[0]][p[1]],
			bytes:   float64(bytes),
			latency: n.latency[p[0]][p[1]],
		})
	}
	n.simulateStage(flows)
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = float64(bytes) / f.done
	}
	return out, nil
}
