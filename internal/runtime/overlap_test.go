package runtime

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dgcl/internal/core"
	"dgcl/internal/tensor"
	"dgcl/internal/testutil"
)

// Overlap battery: the chunked, pipelined executor must be bit-identical to
// the serial one — same collectives, same training trajectories — at every
// chunk size, window, and kernel worker count, because the aggregator
// consumes recvSteps in compiled order and chunking preserves row order
// (see overlap.go). These tests rerun the equivalence suites under a grid
// of overlap configurations and compare against serial output bit for bit.

// overlapVariants is the execution-policy grid every equivalence check runs
// under: tiny chunks (maximum pipeline depth), realistic chunks, unchunked
// pipelining (stage overlap only), lockstep window 1, and the serial
// fallback over a chunked layout (Enabled false, ChunkRows set).
func overlapVariants() []OverlapConfig {
	return []OverlapConfig{
		{Enabled: true, ChunkRows: 3, Window: 1},
		{Enabled: true, ChunkRows: 3, Window: 4},
		{Enabled: true, ChunkRows: 64, Window: 4},
		{Enabled: true},
		{Enabled: false, ChunkRows: 5},
	}
}

func (o OverlapConfig) testName() string {
	if !o.Enabled {
		return fmt.Sprintf("serial-chunk%d", o.ChunkRows)
	}
	return fmt.Sprintf("chunk%d-window%d", o.ChunkRows, o.window())
}

// TestOverlapForwardBitIdenticalToSerial runs the 50-triple forward battery:
// for each case, the serial result is the reference and every overlap
// variant must reproduce it exactly.
func TestOverlapForwardBitIdenticalToSerial(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, rel := buildCase(t, pc)
			local := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				local[d] = tensor.New(len(rel.Local[d]), pc.cols).FillRandom(pc.seed + int64(d))
			}
			want, err := c.Allgather(local)
			if err != nil {
				t.Fatal(err)
			}
			for _, ov := range overlapVariants() {
				c.Overlap = ov
				got, err := c.Allgather(local)
				if err != nil {
					t.Fatalf("%s: %v", ov.testName(), err)
				}
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
						t.Fatalf("%s: GPU %d diverges from serial by %v", ov.testName(), d, diff)
					}
				}
			}
		})
	}
}

// TestOverlapBackwardBitIdenticalToSerial is the backward half. Backward is where the WAR hazard lives (receives
// accumulate into rows later sends read), so this is the test that fails if
// the aggDep gate is wrong.
func TestOverlapBackwardBitIdenticalToSerial(t *testing.T) {
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
			want, err := c.BackwardAllgather(gradFull)
			if err != nil {
				t.Fatal(err)
			}
			for _, ov := range overlapVariants() {
				c.Overlap = ov
				got, err := c.BackwardAllgather(gradFull)
				if err != nil {
					t.Fatalf("%s: %v", ov.testName(), err)
				}
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
						t.Fatalf("%s: GPU %d diverges from serial by %v", ov.testName(), d, diff)
					}
				}
			}
		})
	}
}

// TestOverlapTrainingBitIdentical trains the 20 seeded configurations under
// serial execution and under overlapped execution at two chunk sizes and
// windows; losses and final weights must agree bit for bit in every
// combination.
func TestOverlapTrainingBitIdentical(t *testing.T) {
	variants := []struct {
		name string
		ov   OverlapConfig
	}{
		{"chunk64", OverlapConfig{Enabled: true, ChunkRows: 64, Window: 4}},
		{"chunk16", OverlapConfig{Enabled: true, ChunkRows: 16, Window: 2}},
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			refLosses, refModel := runSeededTraining(t, seed, OverlapConfig{})
			for _, v := range variants {
				losses, model := runSeededTraining(t, seed, v.ov)
				for e := range refLosses {
					if math.Float64bits(refLosses[e]) != math.Float64bits(losses[e]) {
						t.Fatalf("%s: epoch %d loss diverges: serial %v, overlap %v", v.name, e, refLosses[e], losses[e])
					}
				}
				for li, layer := range refModel.Layers {
					pv := model.Layers[li].Params()
					for pi, pr := range layer.Params() {
						for j := range pr.Data {
							if math.Float32bits(pr.Data[j]) != math.Float32bits(pv[pi].Data[j]) {
								t.Fatalf("%s: layer %d param %d element %d diverges: serial %v, overlap %v",
									v.name, li, pi, j, pr.Data[j], pv[pi].Data[j])
							}
						}
					}
				}
			}
		})
	}
}

// TestChunkStagesPreservesRowsAndStages checks the chunk splitter's
// invariants directly: stage count unchanged, per-stage vertex sequences
// unchanged (concatenating chunk vertex lists reproduces the originals in
// order), every chunk within the size bound, and endpoints preserved.
func TestChunkStagesPreservesRowsAndStages(t *testing.T) {
	stages := [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2, 3, 4, 5, 6, 7}}},
		{{Src: 1, Dst: 2, Vertices: []int32{8, 9}}, {Src: 2, Dst: 0, Vertices: []int32{10, 11, 12}}},
		{},
	}
	chunked := chunkStages(stages, 3)
	if len(chunked) != len(stages) {
		t.Fatalf("stage count changed: %d -> %d", len(stages), len(chunked))
	}
	for si, st := range stages {
		var got []int32
		for _, tr := range chunked[si] {
			if len(tr.Vertices) > 3 {
				t.Fatalf("stage %d: chunk of %d rows exceeds bound", si, len(tr.Vertices))
			}
			got = append(got, tr.Vertices...)
		}
		var want []int32
		for _, tr := range st {
			want = append(want, tr.Vertices...)
		}
		if len(got) != len(want) {
			t.Fatalf("stage %d: %d rows after chunking, want %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stage %d row %d: vertex %d, want %d", si, i, got[i], want[i])
			}
		}
	}
	// Endpoint check: every chunk of stage 1 keeps its parent's src/dst.
	for _, tr := range chunked[1] {
		if (tr.Src != 1 || tr.Dst != 2) && (tr.Src != 2 || tr.Dst != 0) {
			t.Fatalf("stage 1 chunk has foreign endpoints %d->%d", tr.Src, tr.Dst)
		}
	}
	if got := chunkStages(stages, 0); &got[0] != &stages[0] {
		t.Fatal("chunkRows 0 should return the input unchanged")
	}
}

// TestCompiledDepsPipelineSafe compiles every property case at a small chunk
// size and asserts the invariants the deadlock-freedom argument rests on:
// sendDep[s] < s and aggDep[s] <= s for every client and stage, and no
// program is forced serial.
func TestCompiledDepsPipelineSafe(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, _ := buildCase(t, pc)
			c.Overlap = OverlapConfig{Enabled: true, ChunkRows: 4}
			fwd, err := c.program(false)
			if err != nil {
				t.Fatal(err)
			}
			bwd, err := c.program(true)
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range []*routingProgram{fwd, bwd} {
				for d, cp := range prog.clients {
					if cp.serialOnly {
						t.Fatalf("client %d compiled serial-only", d)
					}
					for s := range cp.stages {
						if cp.sendDep[s] >= s {
							t.Fatalf("client %d stage %d: sendDep %d not strictly earlier", d, s, cp.sendDep[s])
						}
						if cp.aggDep[s] > s {
							t.Fatalf("client %d stage %d: aggDep %d beyond stage", d, s, cp.aggDep[s])
						}
					}
				}
			}
		})
	}
}

// TestTransportCacheConcurrentAcquireRelease hammers the program transport
// cache from many goroutines, with a deterministic sprinkling of failed
// releases: the cache must stay race-clean, never hand the same base
// transport to two holders at once, and evict a transport released as
// failed instead of reusing it. The overlap window makes acquire/release
// genuinely concurrent with in-flight stages, so this path needs its own
// coverage beyond the collective tests.
func TestTransportCacheConcurrentAcquireRelease(t *testing.T) {
	stages := [][]core.Transfer{{{Src: 0, Dst: 1, Vertices: []int32{1, 2}}}}
	tc := &transportCache{}
	var mu sync.Mutex
	held := make(map[Transport]bool)
	failedOnce := make(map[Transport]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := tc.acquire(stages)
				mu.Lock()
				if held[b] {
					mu.Unlock()
					t.Error("transport handed to two concurrent holders")
					return
				}
				if failedOnce[b] {
					mu.Unlock()
					t.Error("failed-released transport reused")
					return
				}
				held[b] = true
				mu.Unlock()
				fail := (g+i)%13 == 0
				mu.Lock()
				delete(held, b)
				if fail {
					failedOnce[b] = true
				}
				mu.Unlock()
				tc.release(b, fail)
			}
		}()
	}
	wg.Wait()
}

// TestOverlapSteadyStateAllocs pins the overlapped executor's per-collective
// allocation cost on the k=4 alloc workload: pipelining adds a bounded
// constant per client (context, pipeState, sender goroutine) and chunking
// must add nothing per chunk — buffers and arenas still cycle through the
// pool. Budgets have ~2x headroom over measured values, mirroring the PR 5
// budgets the serial path keeps.
func TestOverlapSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c, local, gradFull := allocCluster(t)
	c.Overlap = OverlapConfig{Enabled: true, ChunkRows: 256, Window: 4}
	if _, err := c.Allgather(local); err != nil {
		t.Fatal(err)
	}
	fwd := testing.AllocsPerRun(10, func() {
		if _, err := c.Allgather(local); err != nil {
			t.Fatal(err)
		}
	})
	if fwd > 400 {
		t.Errorf("overlapped Allgather allocates %.0f/op, budget 400", fwd)
	}
	if _, err := c.BackwardAllgather(gradFull); err != nil {
		t.Fatal(err)
	}
	bwd := testing.AllocsPerRun(10, func() {
		if _, err := c.BackwardAllgather(gradFull); err != nil {
			t.Fatal(err)
		}
	})
	if bwd > 400 {
		t.Errorf("overlapped BackwardAllgather allocates %.0f/op, budget 400", bwd)
	}
}
