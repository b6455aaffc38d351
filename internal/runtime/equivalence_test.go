package runtime

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"

	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/tensor"
	"dgcl/internal/testutil"
)

// Equivalence battery for the compiled hot path (DESIGN.md §11, §16).
// Two claims are checked:
//
//  1. The compiled routing programs, chunked at ChunkRows, are bit-identical
//     to the legacy map-based client loops over the unchunked plan. The
//     legacy loops are preserved below as test-local reference
//     implementations and both paths run over the property battery, forward
//     and backward, with a required diff of exactly zero — compilation and
//     chunking reorder nothing, so not even float32 rounding may differ.
//     Each case runs twice on one cluster, so the second run works in the
//     dirty pooled buffers the first left behind, and every client must
//     move rows in the legacy loops' order.
//  2. Steady-state collectives allocate O(1) per client, never per vertex:
//     after one warm-up (program compile + buffer-pool fill), allocations
//     per operation stay far below the vertex count.

// legacyForwardAllgather runs the pre-compile forward client loops — the
// map-based vertexStore implementation this PR replaced — over a fresh
// channel transport. Kept verbatim (modulo test-local naming) as the
// reference the compiled path must reproduce bit for bit.
func legacyForwardAllgather(c *Cluster, local []*tensor.Matrix) ([]*tensor.Matrix, error) {
	cols := local[0].Cols
	tp := NewChanTransport(c.Plan.Stages)
	full := make([]*tensor.Matrix, c.K)
	errs := make([]error, c.K)
	var wg sync.WaitGroup
	for d := 0; d < c.K; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			full[d], errs[d] = legacyForwardClient(c, d, local[d], cols, tp)
		}(d)
	}
	wg.Wait()
	return full, collectClientErrors("legacy graphAllgather", errs)
}

func legacyForwardClient(c *Cluster, d int, local *tensor.Matrix, cols int, tp Transport) (*tensor.Matrix, error) {
	ctx := context.Background()
	ownerIndex := make(map[int32]int, len(c.Rel.Local[d]))
	for i, v := range c.Rel.Local[d] {
		ownerIndex[v] = i
	}
	received := make(map[int32][]float32)
	row := func(v int32) ([]float32, bool) {
		if i, ok := ownerIndex[v]; ok {
			return local.Row(i), true
		}
		r, ok := received[v]
		return r, ok
	}
	for si, st := range c.Plan.Stages {
		for ti, tr := range st {
			if tr.Src != d {
				continue
			}
			buf := tensor.New(len(tr.Vertices), cols)
			for i, v := range tr.Vertices {
				r, ok := row(v)
				if !ok {
					return nil, fmt.Errorf("legacy: GPU %d lacks vertex %d at stage %d", d, v, si+1)
				}
				copy(buf.Row(i), r)
			}
			if err := tp.Send(ctx, TransferKey{si, ti}, tr, NewMessage(buf)); err != nil {
				return nil, err
			}
		}
		for ti, tr := range st {
			if tr.Dst != d {
				continue
			}
			msg, err := tp.Recv(ctx, TransferKey{si, ti}, tr)
			if err != nil {
				return nil, err
			}
			for i, v := range tr.Vertices {
				r := make([]float32, cols)
				copy(r, msg.Rows.Row(i))
				received[v] = r
			}
		}
	}
	lg := c.Locals[d]
	full := tensor.New(lg.NumLocal+lg.NumRemote, cols)
	for i := 0; i < lg.NumLocal; i++ {
		copy(full.Row(i), local.Row(i))
	}
	for i := 0; i < lg.NumRemote; i++ {
		v := lg.GlobalID[lg.NumLocal+i]
		r, ok := received[v]
		if !ok {
			return nil, fmt.Errorf("legacy: GPU %d never received remote vertex %d", d, v)
		}
		copy(full.Row(lg.NumLocal+i), r)
	}
	return full, nil
}

// legacyBackwardAllgather runs the pre-compile backward client loops (map
// accumulators over the plan's BackwardSchedule) over a fresh channel
// transport.
func legacyBackwardAllgather(c *Cluster, gradFull []*tensor.Matrix) ([]*tensor.Matrix, error) {
	cols := gradFull[0].Cols
	flat := c.Plan.BackwardSchedule()
	tp := NewChanTransport(flat)
	out := make([]*tensor.Matrix, c.K)
	errs := make([]error, c.K)
	var wg sync.WaitGroup
	for d := 0; d < c.K; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			out[d], errs[d] = legacyBackwardClient(c, d, gradFull[d], cols, flat, tp)
		}(d)
	}
	wg.Wait()
	return out, collectClientErrors("legacy backward graphAllgather", errs)
}

func legacyBackwardClient(c *Cluster, d int, gradFull *tensor.Matrix, cols int, flat [][]core.Transfer, tp Transport) (*tensor.Matrix, error) {
	ctx := context.Background()
	lg := c.Locals[d]
	accum := make(map[int32][]float32)
	for i := 0; i < lg.NumRemote; i++ {
		v := lg.GlobalID[lg.NumLocal+i]
		r := make([]float32, cols)
		copy(r, gradFull.Row(lg.NumLocal+i))
		accum[v] = r
	}
	grow := func(v int32) []float32 {
		r, ok := accum[v]
		if !ok {
			r = make([]float32, cols)
			accum[v] = r
		}
		return r
	}
	own := tensor.New(lg.NumLocal, cols)
	for i := 0; i < lg.NumLocal; i++ {
		copy(own.Row(i), gradFull.Row(i))
	}
	ownIndex := make(map[int32]int, lg.NumLocal)
	for i := 0; i < lg.NumLocal; i++ {
		ownIndex[lg.GlobalID[i]] = i
	}
	for si, st := range flat {
		for ti, tr := range st {
			if tr.Src != d {
				continue
			}
			buf := tensor.New(len(tr.Vertices), cols)
			for i, v := range tr.Vertices {
				copy(buf.Row(i), grow(v))
			}
			if err := tp.Send(ctx, TransferKey{si, ti}, tr, NewMessage(buf)); err != nil {
				return nil, err
			}
		}
		for ti, tr := range st {
			if tr.Dst != d {
				continue
			}
			msg, err := tp.Recv(ctx, TransferKey{si, ti}, tr)
			if err != nil {
				return nil, err
			}
			for i, v := range tr.Vertices {
				src := msg.Rows.Row(i)
				if oi, ok := ownIndex[v]; ok {
					dst := own.Row(oi)
					for j, x := range src {
						dst[j] += x
					}
				} else {
					dst := grow(v)
					for j, x := range src {
						dst[j] += x
					}
				}
			}
		}
	}
	return own, nil
}

// movedRows lists, per stage of a transfer layout, the vertices client d
// sends and the vertices it receives, transfers taken in index order: the
// order the legacy loops move rows over the plan's stages, and the order a
// compiled program moves them over its own (chunked) layout.
func movedRows(stages [][]core.Transfer, d int) (sends, recvs [][]int32) {
	for _, st := range stages {
		var snd, rcv []int32
		for _, tr := range st {
			if tr.Src == d {
				snd = append(snd, tr.Vertices...)
			}
			if tr.Dst == d {
				rcv = append(rcv, tr.Vertices...)
			}
		}
		sends, recvs = append(sends, snd), append(recvs, rcv)
	}
	return sends, recvs
}

// checkLegacyRowOrder requires the compiled layout for one direction to move
// every client's rows in the order the unchunked stages do. Values alone
// cannot show this — a row lands at its own slot whichever chunk carries
// it — but the bit-identity argument rests on it: chunking preserves row
// order.
func checkLegacyRowOrder(t *testing.T, c *Cluster, backward bool, unchunked [][]core.Transfer) {
	t.Helper()
	prog, err := c.program(backward)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < c.K; d++ {
		gotS, gotR := movedRows(prog.stages, d)
		wantS, wantR := movedRows(unchunked, d)
		for si := range wantS {
			if !slices.Equal(gotS[si], wantS[si]) || !slices.Equal(gotR[si], wantR[si]) {
				t.Fatalf("GPU %d stage %d (backward %v): compiled layout moves rows out of the legacy order", d, si, backward)
			}
		}
	}
}

// TestCompiledForwardMatchesLegacyBitwise runs the compiled forward path and
// the legacy map-based loops over the battery and requires exactly zero
// difference: the compile walk mirrors the legacy execution order, so the
// outputs must be the same bits, not merely close. The second run on the
// same cluster reuses the first run's pooled arenas and payload buffers.
func TestCompiledForwardMatchesLegacyBitwise(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, rel := buildCase(t, pc)
			local := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				local[d] = tensor.New(len(rel.Local[d]), pc.cols).FillRandom(pc.seed + int64(d))
			}
			want, err := legacyForwardAllgather(c, local)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 2; run++ {
				got, err := c.Allgather(local)
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
						t.Fatalf("run %d, GPU %d: compiled forward differs from legacy loops by %v", run, d, diff)
					}
				}
			}
			checkLegacyRowOrder(t, c, false, c.Plan.Stages)
		})
	}
}

// TestCompiledBackwardMatchesLegacyBitwise is the backward half, against the
// legacy loops over BackwardSchedule: relay accumulation reorders nothing
// between the implementations (every accumulator receives its contributions
// in the same stage, transfer, and vertex order), so gradients must match
// bit for bit even though float addition is non-associative. The second run
// on the same cluster starts from dirty pooled arenas, so a relay
// accumulator left unzeroed shows up as a difference.
func TestCompiledBackwardMatchesLegacyBitwise(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, _ := buildCase(t, pc)
			gradFull := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				lg := c.Locals[d]
				gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, pc.cols).FillRandom(pc.seed + 100 + int64(d))
			}
			want, err := legacyBackwardAllgather(c, gradFull)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 2; run++ {
				got, err := c.BackwardAllgather(gradFull)
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
						t.Fatalf("run %d, GPU %d: compiled backward differs from legacy loops by %v", run, d, diff)
					}
				}
			}
			checkLegacyRowOrder(t, c, true, c.Plan.BackwardSchedule())
		})
	}
}

// allocCluster builds the k=4 benchmark workload used by the allocation
// budgets: 1200 vertices means a per-vertex allocation anywhere in the hot
// path blows the budget by an order of magnitude.
func allocCluster(t *testing.T) (*Cluster, []*tensor.Matrix, []*tensor.Matrix) {
	t.Helper()
	pc := propertyCase{
		name: "alloc", g: graph.CommunityGraph(1200, 8, 4, 0.8, 1),
		k: 4, seed: 1, planner: "spst", cols: 32,
	}
	c, rel := buildCase(t, pc)
	local := make([]*tensor.Matrix, pc.k)
	gradFull := make([]*tensor.Matrix, pc.k)
	for d := 0; d < pc.k; d++ {
		local[d] = tensor.New(len(rel.Local[d]), pc.cols).FillRandom(int64(d) + 1)
		lg := c.Locals[d]
		gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, pc.cols).FillRandom(int64(d) + 50)
	}
	return c, local, gradFull
}

// checkSteadyStateAllocs pins the steady-state allocation budget of one
// collective direction on three stacks over allocCluster: the plain cluster,
// the one dgcl.System.Train wires (stats, crash and health trackers, no
// crash scheduled), and the plain one under DefaultRetryPolicy with no
// faults. After one warm-up collective (program compile, transport cache,
// buffer-pool fill), each collective allocates a small per-client constant —
// the result matrices, goroutines, and context plumbing — and nothing per
// vertex or per transfer row; the Train stack adds at most a small
// per-collective constant (health grading) on top, and the retry stack one
// decorator, nothing per receive: the collective's deadline is the only
// timer.
func checkSteadyStateAllocs(t *testing.T, name string, run func(c *Cluster, local, gradFull []*tensor.Matrix) error) {
	t.Helper()
	measure := func(install func(c *Cluster)) float64 {
		c, local, gradFull := allocCluster(t)
		if install != nil {
			install(c)
		}
		if err := run(c, local, gradFull); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := run(c, local, gradFull); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := measure(nil)
	train := measure(func(c *Cluster) {
		trainStack(c, CrashConfig{})
		c.Health.BeginEpoch(0)
	})
	retry := measure(func(c *Cluster) {
		p := DefaultRetryPolicy()
		c.Retry = &p
	})
	// The race tier still exercises the steady-state path above, but race
	// instrumentation allocates shadow state so the count is asserted only
	// in plain builds.
	if testutil.RaceEnabled {
		t.Skipf("allocation counts (%.0f plain, %.0f Train stack, %.0f retry stack, with -race instrumentation) asserted in non-race builds only", plain, train, retry)
	}
	// The plain stack measures ~25 allocs; 200 leaves headroom for runtime
	// noise while staying two orders of magnitude under one-per-vertex.
	if plain > 200 {
		t.Fatalf("%s allocates %.0f objects per op in steady state (budget 200)", name, plain)
	}
	if train > plain+8 {
		t.Fatalf("%s allocates %.0f objects per op on the Train stack, %.0f on the plain one (budget plain+8)", name, train, plain)
	}
	if retry > plain+8 {
		t.Fatalf("%s allocates %.0f objects per op on the retry stack, %.0f on the plain one (budget plain+8)", name, retry, plain)
	}
}

func TestAllgatherSteadyStateAllocs(t *testing.T) {
	checkSteadyStateAllocs(t, "forward allgather", func(c *Cluster, local, _ []*tensor.Matrix) error {
		_, err := c.Allgather(local)
		return err
	})
}

// TestBackwardAllgatherSteadyStateAllocs is the backward twin of the
// forward budget test.
func TestBackwardAllgatherSteadyStateAllocs(t *testing.T) {
	checkSteadyStateAllocs(t, "backward allgather", func(c *Cluster, _, gradFull []*tensor.Matrix) error {
		_, err := c.BackwardAllgather(gradFull)
		return err
	})
}

// TestEpochSteadyStateAllocs bounds the whole steady training epoch. The
// layers, the collectives' results and the loss gradient all write into
// buffers kept across epochs, so what an epoch still allocates is a
// per-rank, per-phase constant (goroutines and their closures, contexts,
// the rank slices the epoch's phases share) and no tensor: 58 objects and
// 3 KB on this cluster. The budgets, 100 objects and 16 KB, leave room for
// runtime noise and stay under one tensor: a single per-epoch matrix of this
// cluster's hidden width (300 rows × 16 floats) is 19 KB on its own.
func TestEpochSteadyStateAllocs(t *testing.T) {
	c, _, _ := allocCluster(t)
	model := gnn.NewModel(gnn.GCN, 32, 16, 2, 7)
	features := tensor.New(1200, 32).FillRandom(11)
	targets := tensor.New(1200, 16).FillRandom(12)
	tr, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	epoch := func() {
		if _, err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
		tr.Step(0.01)
	}
	epoch()
	allocs := testing.AllocsPerRun(5, epoch)
	const epochs = 20
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for e := 0; e < epochs; e++ {
		epoch()
	}
	goruntime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / epochs
	if testutil.RaceEnabled {
		t.Skipf("allocation count (%.0f, %d B with -race instrumentation) asserted in non-race builds only", allocs, bytes)
	}
	t.Logf("steady epoch: %.0f objects, %d B", allocs, bytes)
	if allocs > 100 {
		t.Fatalf("epoch allocates %.0f objects per op in steady state (budget 100)", allocs)
	}
	if bytes > 16<<10 {
		t.Fatalf("epoch allocates %d B per op in steady state (budget 16 KB)", bytes)
	}
}

// TestCollectiveIntoNaNDestinationBitIdentical: the trainer hands the
// collectives its kept result buffers, which are not zeroed first, so every
// row of a result must be written. Destinations filled with NaN must come
// back holding exactly the fresh collective's result, in both directions,
// on the same matrices, and again on a second run over new inputs.
func TestCollectiveIntoNaNDestinationBitIdentical(t *testing.T) {
	c, local, gradFull := allocCluster(t)
	nan := float32(math.NaN())
	for _, backward := range []bool{false, true} {
		dst := make([]*tensor.Matrix, c.K)
		for d := range dst {
			lg := c.Locals[d]
			rows := lg.NumLocal
			if !backward {
				rows += lg.NumRemote
			}
			dst[d] = tensor.New(rows, local[d].Cols)
			for i := range dst[d].Data {
				dst[d].Data[i] = nan
			}
		}
		kept := slices.Clone(dst)
		for run := 0; run < 2; run++ {
			in, fresh := local, c.Allgather
			if backward {
				in, fresh = gradFull, c.BackwardAllgather
			}
			want, err := fresh(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.collective(context.Background(), in, dst, backward)
			if err != nil {
				t.Fatal(err)
			}
			for d := range got {
				if got[d] != kept[d] {
					t.Fatalf("backward=%v run %d GPU %d: the destination was replaced, not written", backward, run, d)
				}
				for i, w := range want[d].Data {
					if g := got[d].Data[i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("backward=%v run %d GPU %d: element %d (row %d) is %v, fresh collective %v",
							backward, run, d, i, i/got[d].Cols, g, w)
					}
				}
			}
			for d := range in {
				in[d] = tensor.New(in[d].Rows, in[d].Cols).FillRandom(int64(100*run + d))
			}
		}
	}
}
