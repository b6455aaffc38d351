// Package dgcl is a Go reproduction of DGCL, the distributed graph
// communication library for GNN training (Cai et al., EuroSys 2021). It
// plans and executes the irregular embedding-passing communication of
// full-graph distributed GNN training: graphs are partitioned across
// (simulated) GPUs, a topology-aware SPST planner builds per-vertex
// multicast trees that exploit fast links, fuse transfers, avoid contention
// and balance load, and a decentralized runtime executes the plan.
//
// The package mirrors the paper's API (Listing 1):
//
//	sys := dgcl.Init(dgcl.DGX1(), dgcl.Options{})
//	sys.BuildCommInfo(g, featureDim)          // partition + plan
//	local := sys.DispatchFeatures(features)   // scatter to GPUs
//	full, _ := sys.GraphAllgather(local)      // remote embeddings in
//
// Hardware is simulated (see DESIGN.md): package simnet provides virtual
// time over Table-1 link speeds, and the runtime moves real float32 data
// between goroutine "GPUs", so results are verifiable against single-device
// training.
package dgcl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dgcl/internal/baselines"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/runtime"
	"dgcl/internal/simnet"
	"dgcl/internal/tensor"
	"dgcl/internal/topology"
)

// Re-exported core types so applications only import dgcl.
type (
	// Graph is a CSR data graph (see NewGraphFromEdges and the dataset
	// generators).
	Graph = graph.Graph
	// Edge is a directed graph edge.
	Edge = graph.Edge
	// Dataset describes one of the paper's evaluation graphs.
	Dataset = graph.Dataset
	// Matrix is a dense float32 matrix of vertex embeddings.
	Matrix = tensor.Matrix
	// Topology describes a GPU fabric.
	Topology = topology.Topology
	// Plan is a staged communication schedule.
	Plan = core.Plan
	// Model is a stack of GNN layers.
	Model = gnn.Model
	// ModelKind selects GCN, CommNet or GIN.
	ModelKind = gnn.ModelKind
	// Trainer runs distributed training on an initialized System.
	Trainer = runtime.Trainer
	// LocalGraph is the re-indexed per-GPU graph.
	LocalGraph = comm.LocalGraph
	// Relation is the communication relation (who needs which vertices).
	Relation = comm.Relation
	// CommStats holds per-GPU transfer, retry and timeout counters.
	CommStats = runtime.CommStats
	// RetryPolicy configures the transport retry decorator.
	RetryPolicy = runtime.RetryPolicy
	// FaultConfig configures transport fault injection (chaos testing).
	FaultConfig = runtime.FaultConfig
	// FaultRates are per-send fault probabilities.
	FaultRates = runtime.FaultRates
	// FaultStats counts injected transport faults.
	FaultStats = runtime.FaultStats
	// CollectiveError is the structured per-GPU failure of a collective.
	CollectiveError = runtime.CollectiveError
	// TransportError is one transfer's failure: a send past its retry
	// budget, or a receive the collective's deadline ended.
	TransportError = runtime.TransportError
	// CrashConfig is a deterministic fail-stop failure schedule.
	CrashConfig = runtime.CrashConfig
	// CrashEvent schedules one fail-stop device failure.
	CrashEvent = runtime.CrashEvent
	// DeviceDownError identifies which device a transfer found dead.
	DeviceDownError = runtime.DeviceDownError
	// Optimizer applies accumulated gradients to model parameters.
	Optimizer = gnn.Optimizer
	// TransportProvider supplies the base transport per collective (the
	// seam the wire transport plugs into; see RunOptions.Transport).
	TransportProvider = runtime.TransportProvider
	// PeerExchange synchronizes losses and gradients across the processes
	// of a multi-process run (see System.SetWorkerMode).
	PeerExchange = runtime.PeerExchange
)

// ErrDeviceDown matches (via errors.Is) any failure caused by a fail-stop
// dead device.
var ErrDeviceDown = runtime.ErrDeviceDown

// DownDevices reads which devices a failed collective found fail-stop dead
// (external ids, ascending); empty when the failure was not a device death.
func DownDevices(err error) []int { return runtime.DownDevices(err) }

// DefaultRetryPolicy returns the standard retransmission budget.
func DefaultRetryPolicy() RetryPolicy { return runtime.DefaultRetryPolicy() }

// ParseCrashSchedule parses "dev@epoch[:stage],..." into a CrashConfig (see
// RunOptions.Crash and the dgcltrain -crash flag).
func ParseCrashSchedule(s string) (*CrashConfig, error) {
	return runtime.ParseCrashSchedule(s)
}

// NewSGD builds an SGD optimizer with optional momentum.
func NewSGD(lr, momentum float32) Optimizer { return gnn.NewSGD(lr, momentum) }

// NewAdam builds an Adam optimizer with standard defaults.
func NewAdam(lr float32) Optimizer { return gnn.NewAdam(lr) }

// The paper's datasets (Table 4) and models (§7).
var (
	Reddit    = graph.Reddit
	ComOrkut  = graph.ComOrkut
	WebGoogle = graph.WebGoogle
	WikiTalk  = graph.WikiTalk
)

// Model kinds: the paper's three evaluated models.
const (
	GCN     = gnn.GCN
	CommNet = gnn.CommNet
	GIN     = gnn.GIN
)

// Topology builders for the paper's hardware configurations.
var (
	// DGX1 is the 8-GPU NVLink server of Figure 3.
	DGX1 = topology.DGX1
	// TwoMachineDGX1 is the default 16-GPU two-server configuration.
	TwoMachineDGX1 = topology.TwoMachineDGX1
	// PCIeOnly8 is the NVLink-less 8-GPU second configuration.
	PCIeOnly8 = topology.PCIeOnly8
	// DGX2 is a 16-GPU NVSwitch fabric (flat full-bandwidth NVLink).
	DGX2 = topology.DGX2
	// TopologyForGPUCount picks the standard configuration for 1..8 or 16
	// GPUs.
	TopologyForGPUCount = topology.ForGPUCount
	// ParseTopology builds a custom fabric from the text spec format
	// documented in internal/topology/spec.go.
	ParseTopology = topology.ParseSpec
)

// NewGraphFromEdges builds a graph with n vertices from an edge list.
func NewGraphFromEdges(n int, edges []Edge, dedup bool) (*Graph, error) {
	return graph.FromEdges(n, edges, dedup)
}

// NewModel builds a GNN model (2 layers is the paper's default).
func NewModel(kind ModelKind, inDim, hiddenDim, numLayers int, seed int64) *Model {
	return gnn.NewModel(kind, inDim, hiddenDim, numLayers, seed)
}

// NewMatrix allocates a rows×cols embedding matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.New(rows, cols) }

// RandomFeatures generates deterministic random vertex features, as the
// paper does for graphs without native features.
func RandomFeatures(vertices, dim int, seed int64) *Matrix {
	return tensor.New(vertices, dim).FillRandom(seed)
}

// Planner selects the communication planning algorithm.
type Planner string

// Available planners: SPST is the paper's contribution, the others are the
// §7 baselines and DESIGN.md ablations.
const (
	PlannerSPST          Planner = "spst"
	PlannerP2P           Planner = "p2p"
	PlannerSPSTNoForward Planner = "spst-noforward"
	PlannerSteiner       Planner = "steiner"
)

// PlanOptions tunes how plans are obtained, not what they are: CacheDir
// short-circuits planning entirely when an identical (graph relation,
// fabric, options) input has been planned before.
type PlanOptions struct {
	// CacheDir, when non-empty, persists plans to this directory keyed by a
	// content digest of everything that determines them; warm lookups skip
	// the planner entirely. The empty string disables caching.
	CacheDir string
}

// Options configures Init.
type Options struct {
	// Planner defaults to PlannerSPST.
	Planner Planner
	// Seed drives partitioning and planning; runs are reproducible.
	Seed int64
	// Plan configures the on-disk plan cache. The zero value plans uncached.
	Plan PlanOptions
	// Overlap is ignored; the transfer layout is runtime.ChunkRows. Kept
	// because cmd/dgclperf compiles against it (ROADMAP 1(c)).
	Overlap OverlapOptions
}

// OverlapOptions is ignored: every collective runs its stages in order over
// transfers chunked at runtime.ChunkRows rows. Kept because cmd/dgclperf
// compiles against it (ROADMAP 1(c)).
type OverlapOptions struct {
	// ChunkRows is ignored; the layout is runtime.ChunkRows.
	ChunkRows int
}

// System is an initialized DGCL instance bound to a topology, matching the
// DGCL master + clients of Figure 5.
type System struct {
	topo *Topology
	opts Options

	g      *Graph
	part   *partition.Partition
	rel    *Relation
	locals []*LocalGraph
	plan   *Plan
	cost   float64
	clu    *runtime.Cluster
	pcache *core.PlanCache

	// Crash-tolerance state (see resilience.go). featureDim is remembered
	// from BuildCommInfo so degraded replans weight the plan identically;
	// dtopo is the degraded fabric after Degrade (nil = full fabric); alive
	// maps compact device index -> original device id (nil = identity);
	// runOpts reapplies transport options after a rebuild; health holds the
	// down set and outlives cluster rebuilds so dead devices stay dead.
	featureDim int
	dtopo      *Topology
	alive      []int
	runOpts    *RunOptions
	health     *runtime.HealthTracker

	// Worker-mode state (see SetWorkerMode): the client ranks this process
	// executes and the peer exchanger that synchronizes the rest.
	ranks []int
	peers PeerExchange

	// Epoch-boundary hooks (see OnEpochEnd): the serving layer's
	// model-refresh seam.
	epochHooks []func(epoch int, model *Model)
}

// curTopo returns the fabric the current cluster runs on (degraded after
// Degrade, full otherwise).
func (s *System) curTopo() *Topology {
	if s.dtopo != nil {
		return s.dtopo
	}
	return s.topo
}

// Init initializes the distributed communication environment for the given
// fabric.
func Init(topo *Topology, opts Options) *System {
	if opts.Planner == "" {
		opts.Planner = PlannerSPST
	}
	return &System{topo: topo, opts: opts}
}

// NumGPUs returns the number of workers.
func (s *System) NumGPUs() int { return s.topo.NumGPUs() }

// SetOverlapPolicy is a no-op: there is one executor. Kept because
// cmd/dgclperf/trace.go:373 compiles against it (ROADMAP 1(c)).
func (s *System) SetOverlapPolicy(disabled bool, window int) {}

// BuildCommInfo partitions the graph onto the GPUs (hierarchically when the
// topology spans machines), builds the communication relation and runs the
// communication planner. featureDim is the embedding width used to weight
// the plan; by the §5.1 invariance property the same plan is optimal for
// every layer width.
func (s *System) BuildCommInfo(g *Graph, featureDim int) error {
	if featureDim < 1 {
		return fmt.Errorf("dgcl: featureDim must be >= 1, got %d", featureDim)
	}
	k := s.topo.NumGPUs()
	var p *partition.Partition
	var err error
	if s.topo.NumMachines() > 1 {
		per := make([]int, s.topo.NumMachines())
		for d := 0; d < k; d++ {
			per[s.topo.GPUMachine(d)]++
		}
		p, err = partition.Hierarchical(g, per, partition.Options{Seed: s.opts.Seed})
	} else {
		p, err = partition.KWay(g, k, partition.Options{Seed: s.opts.Seed})
	}
	if err != nil {
		return err
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		return err
	}
	plan, locals, err := s.planAndLocalGraphs(g, rel, s.topo, featureDim)
	if err != nil {
		return err
	}
	clu, err := runtime.NewCluster(rel, locals, plan)
	if err != nil {
		return err
	}
	s.g, s.part, s.rel, s.locals, s.plan, s.clu = g, p, rel, locals, plan, clu
	s.featureDim = featureDim
	s.dtopo, s.alive = nil, nil
	s.applyRunOptions()
	return nil
}

// planAndLocalGraphs plans the relation over the fabric while the per-GPU
// local graphs are built beside it. Both read only the graph and the
// relation and neither reads what the other writes, so the pair is what
// running them one after the other returns.
func (s *System) planAndLocalGraphs(g *Graph, rel *Relation, topo *Topology, featureDim int) (*Plan, []*LocalGraph, error) {
	var locals []*LocalGraph
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		locals = comm.BuildLocalGraphs(g, rel)
	}()
	plan, err := s.buildPlan(rel, topo, featureDim)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	return plan, locals, nil
}

// buildPlan runs the configured planner for the relation over the given
// fabric (the full topology normally, a degraded one after Degrade) and
// records the modeled cost. With Options.Plan.CacheDir set it plans through
// the content-addressed cache, which answers a degraded fabric only when an
// earlier run planned that same fabric.
func (s *System) buildPlan(rel *Relation, topo *Topology, featureDim int) (*Plan, error) {
	bytesPerVertex := int64(featureDim) * 4
	var plan *Plan
	var err error
	switch s.opts.Planner {
	case PlannerSPST, PlannerSPSTNoForward:
		spstOpts := core.SPSTOptions{Seed: s.opts.Seed,
			DisableForwarding: s.opts.Planner == PlannerSPSTNoForward}
		var state *core.State
		if s.opts.Plan.CacheDir != "" {
			if s.pcache == nil {
				s.pcache = core.NewPlanCache(s.opts.Plan.CacheDir)
			}
			plan, state, err = s.pcache.PlanSPST(rel, topo, bytesPerVertex, spstOpts)
		} else {
			plan, state, err = core.PlanSPST(rel, topo, bytesPerVertex, spstOpts)
		}
		if err != nil {
			return nil, err
		}
		s.cost = state.Cost()
	case PlannerP2P:
		plan = baselines.PlanP2P(rel, bytesPerVertex)
		m, merr := core.NewModel(topo)
		if merr != nil {
			return nil, merr
		}
		s.cost = core.CostOfPlan(m, plan)
	case PlannerSteiner:
		plan, err = baselines.PlanSteiner(rel, topo, bytesPerVertex)
		if err != nil {
			return nil, err
		}
		m, merr := core.NewModel(topo)
		if merr != nil {
			return nil, merr
		}
		s.cost = core.CostOfPlan(m, plan)
	default:
		return nil, fmt.Errorf("dgcl: unknown planner %q", s.opts.Planner)
	}
	return plan, nil
}

func (s *System) ready() error {
	if s.clu == nil {
		return fmt.Errorf("dgcl: call BuildCommInfo first")
	}
	return nil
}

// RunOptions configures how collectives execute: deadlines, retry budgets
// and (for testing) transport fault injection. Install with SetRunOptions
// after BuildCommInfo.
type RunOptions struct {
	// Timeout bounds each collective end to end; 0 means unbounded (the
	// context passed to the *Context variants still applies).
	Timeout time.Duration
	// Retry, when non-nil, installs the retry transport decorator: dropped
	// and corrupted messages are retransmitted with backoff, and a send that
	// exhausts the budget surfaces as a structured per-GPU error. It sets no
	// receive timer: Timeout (or the caller's deadline) bounds every
	// receive, with or without a policy.
	Retry *RetryPolicy
	// Faults, when non-nil, injects seeded transport faults
	// (drop/delay/duplicate/corrupt) at the same rates on every link. Pair
	// with Retry for recovery.
	Faults *FaultConfig
	// CollectStats enables per-GPU transfer/retry/timeout counters,
	// readable via Stats. Implied when Retry or Faults is set.
	CollectStats bool
	// Crash, when non-nil, installs a deterministic fail-stop schedule
	// ("device d dies at epoch E, stage S"): transfers touching a crashed
	// device fail fast with ErrDeviceDown and the resilient Train loop
	// recovers by degrading onto the survivors. See ParseCrashSchedule.
	Crash *CrashConfig
	// DownAfter enables failure detection without a schedule: this many
	// consecutive deadline-class failures blamed on one device convert into
	// a down verdict (0 keeps the current threshold, 2 unless set before).
	// It takes effect whenever set, before or after Train.
	DownAfter int
	// Transport, when non-nil, supplies the base transport for every
	// collective instead of the in-memory channels — the seam the wire
	// transport (internal/comm/wire) plugs into. Providers route by
	// external device id, so they survive degraded rebuilds. Fault and
	// retry decorators stack on top unchanged.
	Transport runtime.TransportProvider
}

// SetRunOptions installs transport options on the initialized system.
// Options survive a degraded rebuild: Degrade reapplies them against the
// surviving fabric.
func (s *System) SetRunOptions(opts RunOptions) error {
	if err := s.ready(); err != nil {
		return err
	}
	s.runOpts = &opts
	if opts.Crash != nil || opts.DownAfter > 0 {
		s.ensureResilience()
		s.health.Configure(opts.DownAfter, opts.Crash)
	}
	s.applyRunOptions()
	return nil
}

// applyRunOptions (re)installs the recorded run options on the current
// cluster. Called after SetRunOptions and after every rebuild
// (BuildCommInfo, Degrade) so transport decorators, stats, and the health
// tracker follow the cluster across degraded replans. Stats are on whenever
// the health tracker is, since recovery reports read them.
func (s *System) applyRunOptions() {
	if s.clu == nil {
		return
	}
	stats := s.health != nil
	if opts := s.runOpts; opts != nil {
		s.clu.Timeout = opts.Timeout
		s.clu.Faults = opts.Faults
		s.clu.Retry = opts.Retry
		s.clu.Provider = opts.Transport
		stats = stats || opts.CollectStats || opts.Retry != nil || opts.Faults != nil
	}
	if stats && s.clu.Stats == nil {
		s.clu.Stats = runtime.NewCommStats(s.rel.K)
	}
	s.clu.Health = s.health
	s.clu.DeviceIDs = append([]int(nil), s.alive...)
	s.clu.Ranks = s.ranks
}

// SetWorkerMode restricts collective execution to the given client ranks and
// installs the peer exchanger that synchronizes losses and gradients with
// the other processes of a multi-process run (see cmd/dgclworker). Every
// process keeps all K model replicas and steps them identically, so final
// weights are bit-identical to an in-process run with the same seed. Call
// after BuildCommInfo (and SetRunOptions with the wire provider). Worker
// mode composes with Degrade-based recovery under coordinator supervision
// (internal/worker): Degrade renumbers this process's ranks through the
// survivor mapping, and the supervision layer re-meshes the survivors and
// calls SetWorkerMode again with the new generation's wire node.
func (s *System) SetWorkerMode(ranks []int, peers PeerExchange) error {
	if err := s.ready(); err != nil {
		return err
	}
	for _, r := range ranks {
		if r < 0 || r >= s.rel.K {
			return fmt.Errorf("dgcl: worker rank %d outside [0,%d)", r, s.rel.K)
		}
	}
	s.ranks = append([]int(nil), ranks...)
	s.peers = peers
	s.clu.Ranks = s.ranks
	return nil
}

// OnEpochEnd registers a hook observing the epoch boundaries of the
// resilient Train loop: fn runs synchronously after each completed epoch's
// optimizer step — and after every crash-recovery rebuild — with the number
// of the last epoch reflected in the weights (-1 when a recovery restarted
// from scratch) and replica 0's live model. Hooks that retain the model must
// Clone it; Train mutates it on the next step. The serving layer
// (internal/serve) registers its weight copy and model-version bump here,
// which makes epoch boundaries the safe
// interleaving point between training and serving on one System: hooks run
// with no collective in flight.
func (s *System) OnEpochEnd(fn func(epoch int, model *Model)) {
	s.epochHooks = append(s.epochHooks, fn)
}

// fireEpochEnd runs the registered epoch-boundary hooks in registration
// order.
func (s *System) fireEpochEnd(epoch int, model *Model) {
	for _, fn := range s.epochHooks {
		fn(epoch, model)
	}
}

// ensureResilience installs the health tracker that the resilient loop and
// the runtime's stage loop share: default threshold, no schedule. Idempotent.
func (s *System) ensureResilience() {
	if s.health == nil {
		s.health = runtime.NewHealthTracker(0, runtime.CrashConfig{})
	}
}

// Stats returns the per-GPU communication counters, or nil when collection
// was never enabled (see RunOptions.CollectStats). A degraded rebuild
// renumbers the clients, so the counters restart there.
func (s *System) Stats() *CommStats {
	if s.clu == nil {
		return nil
	}
	return s.clu.Stats
}

// DispatchFeatures scatters global vertex features to the GPUs' partitions.
func (s *System) DispatchFeatures(features *Matrix) ([]*Matrix, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if features.Rows != s.g.NumVertices() {
		return nil, fmt.Errorf("dgcl: features have %d rows, graph has %d vertices", features.Rows, s.g.NumVertices())
	}
	out := make([]*Matrix, s.rel.K)
	for d := 0; d < s.rel.K; d++ {
		out[d] = tensor.GatherRows(features, s.rel.Local[d])
	}
	return out, nil
}

// GraphAllgather fetches remote vertex embeddings for every GPU: local[d]
// holds GPU d's owned rows; the result holds local+remote rows in local
// graph order, ready for a single-GPU GNN layer. It blocks until all clients
// finish, as in the paper (graphAllgather is synchronous).
func (s *System) GraphAllgather(local []*Matrix) ([]*Matrix, error) {
	return s.GraphAllgatherContext(context.Background(), local)
}

// GraphAllgatherContext is GraphAllgather bounded by a context: cancellation
// or a deadline aborts all clients with a structured CollectiveError.
func (s *System) GraphAllgatherContext(ctx context.Context, local []*Matrix) ([]*Matrix, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	return s.clu.AllgatherContext(ctx, local)
}

// GraphAllgatherBackward routes gradients for remote vertices back to their
// owners along the plan's trees in reverse, returning accumulated gradients
// for each GPU's owned rows.
func (s *System) GraphAllgatherBackward(gradFull []*Matrix) ([]*Matrix, error) {
	return s.GraphAllgatherBackwardContext(context.Background(), gradFull)
}

// GraphAllgatherBackwardContext is GraphAllgatherBackward bounded by a
// context.
func (s *System) GraphAllgatherBackwardContext(ctx context.Context, gradFull []*Matrix) ([]*Matrix, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	return s.clu.BackwardAllgatherContext(ctx, gradFull)
}

// NewTrainer builds a distributed trainer for the model with the global
// features and regression targets.
func (s *System) NewTrainer(model *Model, features, targets *Matrix) (*Trainer, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	tr, err := runtime.NewTrainer(s.clu, model, features, targets)
	if err != nil {
		return nil, err
	}
	tr.Peers = s.peers
	return tr, nil
}

// Plan returns the active communication plan.
func (s *System) Plan() *Plan { return s.plan }

// Relation returns the communication relation.
func (s *System) Relation() *Relation { return s.rel }

// LocalGraph returns GPU d's re-indexed graph.
func (s *System) LocalGraph(d int) *LocalGraph { return s.locals[d] }

// PartitionAssignment returns the vertex -> GPU assignment.
func (s *System) PartitionAssignment() []int32 { return s.part.Assign }

// PlannedCost returns the §5.1 modeled communication time of the plan in
// seconds.
func (s *System) PlannedCost() float64 { return s.cost }

// PlanCacheStats returns the plan cache's hit and miss counters; both are
// zero when no cache is configured (Options.Plan.CacheDir empty).
func (s *System) PlanCacheStats() (hits, misses int64) {
	if s.pcache == nil {
		return 0, 0
	}
	return s.pcache.Stats()
}

// SimulateAllgatherTime runs the virtual-time network simulator over the
// plan and returns the simulated wall time of one forward graphAllgather.
func (s *System) SimulateAllgatherTime(seed int64) (float64, error) {
	if err := s.ready(); err != nil {
		return 0, err
	}
	net, err := simnet.New(s.topo, simnet.DefaultConfig(seed))
	if err != nil {
		return 0, err
	}
	res, err := net.RunPlan(s.plan)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}
