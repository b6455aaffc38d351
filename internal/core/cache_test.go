package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dgcl/internal/graph"
	"dgcl/internal/topology"
)

func cacheWorkload(t *testing.T) (*relTopo, SPSTOptions) {
	t.Helper()
	topo := topology.DGX1()
	rel := partitionFor(t, graph.CommunityGraph(400, 10, 8, 0.8, 4), topo, 4)
	return &relTopo{rel: rel, topo: topo}, SPSTOptions{Seed: 4}
}

// TestPlanCacheWarmHitSkipsPlanning: the acceptance property of the cache —
// a warm lookup returns the plan without running the tree search at all,
// asserted via the planner invocation counter.
func TestPlanCacheWarmHitSkipsPlanning(t *testing.T) {
	w, opts := cacheWorkload(t)
	c := NewPlanCache("")

	before := PlanInvocations()
	cold, coldState, err := c.PlanSPST(w.rel, w.topo, 1024, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := PlanInvocations() - before; got != 1 {
		t.Fatalf("cold lookup ran the planner %d times, want 1", got)
	}

	warm, warmState, err := c.PlanSPST(w.rel, w.topo, 1024, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := PlanInvocations() - before; got != 1 {
		t.Fatalf("warm lookup ran the planner (total %d invocations, want 1)", got)
	}
	if !bytes.Equal(planJSONBytes(t, cold), planJSONBytes(t, warm)) {
		t.Error("warm plan differs from cold plan")
	}
	if !almostEqual(coldState.Cost(), warmState.Cost(), 1e-9*coldState.Cost()) {
		t.Errorf("warm replayed cost %v != cold cost %v", warmState.Cost(), coldState.Cost())
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestPlanCacheDiskRoundTrip: with a directory configured, a fresh cache in
// a fresh process (modeled by a second PlanCache instance) finds the stored
// plan on disk and skips planning.
func TestPlanCacheDiskRoundTrip(t *testing.T) {
	w, opts := cacheWorkload(t)
	dir := t.TempDir()

	c1 := NewPlanCache(dir)
	cold, _, err := c1.PlanSPST(w.rel, w.topo, 1024, opts)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "spst-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one spst-*.json in cache dir, got %v (err %v)", files, err)
	}

	c2 := NewPlanCache(dir)
	before := PlanInvocations()
	warm, _, err := c2.PlanSPST(w.rel, w.topo, 1024, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := PlanInvocations() - before; got != 0 {
		t.Fatalf("disk hit ran the planner %d times, want 0", got)
	}
	if !bytes.Equal(planJSONBytes(t, cold), planJSONBytes(t, warm)) {
		t.Error("plan loaded from disk differs from the stored plan")
	}
	if hits, misses := c2.Stats(); hits != 1 || misses != 0 {
		t.Errorf("fresh cache stats = (%d hits, %d misses), want (1, 0)", hits, misses)
	}
}

// TestPlanCacheDamagedFileIsMiss: a corrupt cache file must not poison
// planning — it reads as a miss and is replaced by a fresh plan.
func TestPlanCacheDamagedFileIsMiss(t *testing.T) {
	w, opts := cacheWorkload(t)
	dir := t.TempDir()
	key := CacheKey(w.rel, w.topo, 1024, opts)
	path := filepath.Join(dir, "spst-"+key[:32]+".json")
	if err := os.WriteFile(path, []byte("{definitely not a plan"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewPlanCache(dir)
	before := PlanInvocations()
	plan, _, err := c.PlanSPST(w.rel, w.topo, 1024, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := PlanInvocations() - before; got != 1 {
		t.Fatalf("damaged file should be a miss (planner ran %d times, want 1)", got)
	}
	if err := plan.Validate(w.rel); err != nil {
		t.Fatal(err)
	}
	// The replan overwrote the damaged entry: a second fresh cache hits it.
	c2 := NewPlanCache(dir)
	if _, _, err := c2.PlanSPST(w.rel, w.topo, 1024, opts); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c2.Stats(); hits != 1 {
		t.Error("replanned entry was not persisted over the damaged file")
	}
}

// TestCacheKeySensitivity: the key must separate everything that changes the
// plan and identify everything that does not (default normalization).
func TestCacheKeySensitivity(t *testing.T) {
	w, _ := cacheWorkload(t)
	base := CacheKey(w.rel, w.topo, 1024, SPSTOptions{Seed: 4})

	if got := CacheKey(w.rel, w.topo, 1024, SPSTOptions{Seed: 4, ChunkSize: 16}); got != base {
		t.Error("the explicit default ChunkSize changed the key")
	}

	diff := map[string]string{
		"seed":      CacheKey(w.rel, w.topo, 1024, SPSTOptions{Seed: 5}),
		"chunk":     CacheKey(w.rel, w.topo, 1024, SPSTOptions{Seed: 4, ChunkSize: 4}),
		"noforward": CacheKey(w.rel, w.topo, 1024, SPSTOptions{Seed: 4, DisableForwarding: true}),
		"bytes":     CacheKey(w.rel, w.topo, 2048, SPSTOptions{Seed: 4}),
	}
	seen := map[string]string{base: "base"}
	for name, key := range diff {
		if prev, dup := seen[key]; dup {
			t.Errorf("key for %q collides with %q", name, prev)
		}
		seen[key] = name
	}

	// A different topology with the same GPU count must also change the key.
	other := topology.PCIeOnly8()
	if got := CacheKey(w.rel, other, 1024, SPSTOptions{Seed: 4}); got == base {
		t.Error("topology change did not change the key")
	}
}

// TestPlanCacheValidatesInputs: the cached front-end applies the same input
// validation as PlanSPST instead of hashing garbage.
func TestPlanCacheValidatesInputs(t *testing.T) {
	w, opts := cacheWorkload(t)
	c := NewPlanCache("")
	if _, _, err := c.PlanSPST(w.rel, w.topo, 0, opts); err == nil {
		t.Error("bytesPerVertex=0 not rejected")
	}
	if _, _, err := c.PlanSPST(w.rel, w.topo, 1024, SPSTOptions{ChunkSize: -1}); err == nil {
		t.Error("negative ChunkSize not rejected")
	}
	if _, _, err := c.PlanSPST(w.rel, topology.SubDGX1(4), 1024, opts); err == nil {
		t.Error("relation/topology GPU-count mismatch not rejected")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("rejected inputs counted in stats: (%d, %d)", hits, misses)
	}
}
