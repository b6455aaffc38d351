package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dgcl/internal/comm"
	"dgcl/internal/topology"
)

// Content-addressed plan cache. Communication plans are a pure function of
// (communication relation, fabric, per-vertex payload, planner options), and
// training reuses one plan for every layer of every epoch — so ablation
// sweeps, repeated cmd/dgclplan invocations and re-initialized Systems keep
// recomputing identical plans. PlanCache keys plans by a SHA-256 digest of
// exactly those inputs: a hit returns the stored plan without running the
// tree search at all (observable via PlanInvocations). With a directory
// configured, plans also persist across processes in the serialize.go JSON
// format.

// CacheKey returns the content digest identifying the plan PlanSPST would
// produce for these inputs. Options are normalized first, so e.g. ChunkSize 0
// and 16 share an entry.
func CacheKey(rel *comm.Relation, topo *topology.Topology, bytesPerVertex int64, opts SPSTOptions) string {
	opts = opts.withDefaults()
	h := sha256.New()
	hashStr(h, "dgcl-spst-plan-v2")
	hashInts(h, int64(rel.K), bytesPerVertex)
	for src := 0; src < rel.K; src++ {
		for dst := 0; dst < rel.K; dst++ {
			vs := rel.Send[src][dst]
			hashInts(h, int64(len(vs)))
			for _, v := range vs {
				hashInts(h, int64(v))
			}
		}
	}
	hashTopology(h, topo)
	hashInts(h, opts.Seed, int64(opts.ChunkSize), boolInt(opts.DisableForwarding), boolInt(opts.TreePerSource))
	return hex.EncodeToString(h.Sum(nil))
}

// hashTopology digests everything the cost model reads: the GPU->node
// mapping and every connection's endpoints, class and bandwidth. Channel
// routing is deterministic given these, so they pin the whole Model.
func hashTopology(h hash.Hash, topo *topology.Topology) {
	hashStr(h, topo.Name)
	hashInts(h, int64(topo.NumGPUs()), int64(topo.NumMachines()), int64(len(topo.Nodes())))
	for g := 0; g < topo.NumGPUs(); g++ {
		hashInts(h, int64(topo.GPUNode(g)))
	}
	for _, n := range topo.Nodes() {
		hashInts(h, int64(n.Kind), int64(n.Machine))
	}
	for _, c := range topo.Conns() {
		hashInts(h, int64(c.A), int64(c.B), int64(c.Type), int64(math.Float64bits(c.Bandwidth)))
	}
}

func hashStr(h hash.Hash, s string) {
	hashInts(h, int64(len(s)))
	h.Write([]byte(s))
}

func hashInts(h hash.Hash, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// PlanCache memoizes PlanSPST results by content key. The zero value is not
// usable; construct with NewPlanCache. Safe for concurrent use. Cached plans
// are shared pointers and must be treated as immutable, which every consumer
// in this module already does.
type PlanCache struct {
	dir    string // "" = in-memory only
	mu     sync.Mutex
	mem    map[string]*Plan
	hits   atomic.Int64
	misses atomic.Int64
}

// NewPlanCache returns a plan cache. With dir non-empty, plans are also
// written to (and read from) dir as <key>.json files in the serialize.go
// format; the directory is created on first store.
func NewPlanCache(dir string) *PlanCache {
	return &PlanCache{dir: dir, mem: make(map[string]*Plan)}
}

// Stats returns the number of cache hits and misses so far.
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// PlanSPST returns the cached plan for the inputs, or plans and stores it.
// The returned State is rebuilt by replay on hits; its Cost matches the §5.1
// model of the plan (planner-state and replayed costs agree to within
// floating-point association order).
func (c *PlanCache) PlanSPST(rel *comm.Relation, topo *topology.Topology, bytesPerVertex int64, opts SPSTOptions) (*Plan, *State, error) {
	if topo.NumGPUs() != rel.K {
		return nil, nil, fmt.Errorf("core: topology has %d GPUs, relation %d", topo.NumGPUs(), rel.K)
	}
	if bytesPerVertex < 1 {
		return nil, nil, fmt.Errorf("core: bytesPerVertex must be >= 1, got %d", bytesPerVertex)
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	key := CacheKey(rel, topo, bytesPerVertex, opts)
	if plan := c.lookup(key, rel.K); plan != nil {
		c.hits.Add(1)
		m, err := NewModel(topo)
		if err != nil {
			return nil, nil, err
		}
		return plan, ReplayState(m, plan), nil
	}
	c.misses.Add(1)
	plan, state, err := PlanSPST(rel, topo, bytesPerVertex, opts)
	if err != nil {
		return nil, nil, err
	}
	c.store(key, plan)
	return plan, state, nil
}

func (c *PlanCache) lookup(key string, k int) *Plan {
	c.mu.Lock()
	plan := c.mem[key]
	c.mu.Unlock()
	if plan != nil {
		return plan
	}
	if c.dir == "" {
		return nil
	}
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil
	}
	defer f.Close()
	plan, err = ReadPlanJSON(f)
	// A stale or damaged file is a miss, not an error: replanning overwrites it.
	if err != nil || plan.K != k {
		return nil
	}
	c.mu.Lock()
	c.mem[key] = plan
	c.mu.Unlock()
	return plan
}

func (c *PlanCache) store(key string, plan *Plan) {
	c.mu.Lock()
	c.mem[key] = plan
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	// Persistence is best-effort: an unwritable cache directory degrades to
	// in-memory caching rather than failing planning.
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "plan-*.tmp")
	if err != nil {
		return
	}
	if err := plan.WriteJSON(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

func (c *PlanCache) path(key string) string {
	return filepath.Join(c.dir, "spst-"+key[:32]+".json")
}
