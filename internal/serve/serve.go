// Package serve is the online-inference frontend over a trained dgcl.System:
// a long-running embedding server that batches concurrent vertex queries into
// one distributed forward per flush, caches embeddings in a partition-aware
// LRU keyed by (vertex, model-version), sheds load past a token-bucket rate
// or a queue-depth threshold with ErrOverload, and fails over onto survivors
// via System.Degrade when a device dies mid-serve.
//
// Interleaving constraint: concurrent collectives on one System are
// unsupported, so serving and training must not overlap collectives. The
// supported pattern is phase-separated — train, then serve — with
// System.OnEpochEnd(server.EpochHook) bridging the two: the hook runs at
// epoch boundaries (no collective in flight), swaps in the freshly stepped
// weights, bumps the model version, and invalidates the embedding cache
// wholesale.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dgcl"
	"dgcl/internal/clock"
)

// ErrOverload is returned by Query when admission control sheds the request:
// the token bucket is empty or the batcher queue is at the shed threshold.
// Clients should back off and retry; the server is healthy, just saturated.
var ErrOverload = errors.New("serve: overloaded")

// Result is one answered embedding query.
type Result struct {
	// Row is the vertex's embedding under Version. It is shared with the
	// cache: callers must not modify it.
	Row     []float32
	Version uint64
	Cached  bool
}

// Config tunes the server. The zero value gets sensible defaults.
type Config struct {
	// MaxBatch is the occupancy cutoff: a batch with this many requests
	// flushes immediately. Default 32.
	MaxBatch int
	// BatchDelay is the latency cutoff: a batch flushes this long after its
	// first request even if not full. Default 2ms.
	BatchDelay time.Duration
	// QueueDepth is the shed threshold: requests beyond this many queued
	// misses are rejected with ErrOverload. Default 256.
	QueueDepth int
	// CacheEntries bounds the embedding cache; 0 means default (4096),
	// negative disables caching.
	CacheEntries int
	// RateLimit admits at most this many queries per second (token bucket,
	// capacity RateBurst). 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity; minimum 1 when RateLimit > 0.
	RateBurst int
}

const (
	// forwardTimeout bounds one batched forward.
	forwardTimeout = 30 * time.Second
	// idleTimeout bounds how long a network connection may sit between
	// requests.
	idleTimeout = 60 * time.Second
	// writeTimeout bounds writing one reply.
	writeTimeout = 10 * time.Second
	// requestTimeout bounds one query on behalf of a network client, and one
	// query of the load generator.
	requestTimeout = 15 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	return c
}

// Server answers vertex-embedding queries over a trained system.
type Server struct {
	sys         *dgcl.System
	numVertices int

	// version is the model version: bumped by UpdateModel/EpochHook and by
	// failover. Cache entries are keyed by it; a bump invalidates them all.
	version atomic.Uint64

	// mu serializes batched forwards against model swaps and failover — only
	// one collective runs on the system at a time, and version/engine writes
	// happen under it.
	mu  sync.Mutex
	eng *engine

	cache   *cache
	limiter *tokenBucket
	stats   serverStats
	batcher *batcher

	closeOnce sync.Once
}

// New builds a server over sys serving embeddings of model applied to
// features. The model is cloned; later training steps reach the server only
// through UpdateModel or EpochHook.
func New(sys *dgcl.System, model *dgcl.Model, features *dgcl.Matrix, cfg Config) (*Server, error) {
	if model == nil || len(model.Layers) == 0 {
		return nil, errors.New("serve: model must have at least one layer")
	}
	if features == nil || features.Rows == 0 {
		return nil, errors.New("serve: features must be non-empty")
	}
	cfg = cfg.withDefaults()
	eng, err := newEngine(sys, model, features)
	if err != nil {
		return nil, fmt.Errorf("serve: building inference engine: %w", err)
	}
	s := &Server{
		sys:         sys,
		numVertices: features.Rows,
		eng:         eng,
		limiter:     newTokenBucket(cfg.RateLimit, cfg.RateBurst, time.Now()),
	}
	if cfg.CacheEntries > 0 {
		assign := append([]int32(nil), sys.PartitionAssignment()...)
		s.cache = newCache(cfg.CacheEntries, assign, sys.NumGPUs())
	}
	s.batcher = newBatcher(cfg.MaxBatch, cfg.BatchDelay, cfg.QueueDepth, clock.Real{}, s.flush)
	return s, nil
}

// NumVertices is the valid query range: vertices are [0, NumVertices).
func (s *Server) NumVertices() int { return s.numVertices }

// Query answers one vertex-embedding query: from the cache when a fresh
// (current model-version) entry exists, otherwise through the batcher and one
// batched forward. It returns ErrOverload when shed by admission control and
// ctx.Err when the caller gives up first.
func (s *Server) Query(ctx context.Context, vertex int) (Result, error) {
	s.stats.requests.Add(1)
	if vertex < 0 || vertex >= s.numVertices {
		s.stats.errors.Add(1)
		return Result{}, fmt.Errorf("serve: vertex %d out of range [0,%d)", vertex, s.numVertices)
	}
	start := time.Now()
	if !s.limiter.allow(start) {
		s.stats.shedRate.Add(1)
		return Result{}, ErrOverload
	}
	v := int32(vertex)
	if row, ok := s.cache.get(v, s.version.Load()); ok {
		s.stats.hits.Add(1)
		s.stats.observe(time.Since(start), true)
		return Result{Row: row, Version: s.version.Load(), Cached: true}, nil
	}
	req := request{vertex: v, ch: make(chan response, 1)}
	if !s.batcher.submit(req) {
		s.stats.shedQueue.Add(1)
		return Result{}, ErrOverload
	}
	s.stats.misses.Add(1)
	select {
	case resp := <-req.ch:
		if resp.err != nil {
			s.stats.errors.Add(1)
			return Result{}, resp.err
		}
		s.stats.observe(time.Since(start), false)
		return Result{Row: resp.row, Version: resp.version}, nil
	case <-ctx.Done():
		s.stats.errors.Add(1)
		return Result{}, ctx.Err()
	}
}

// flush executes one batch: a single distributed forward answers every
// request, deduplicated by vertex. On a device-death failure it degrades the system onto the survivors, invalidates the cache,
// records the transition, and retries once on the degraded replica.
func (s *Server) flush(batch []request, reason flushReason) {
	s.stats.noteFlush(len(batch), reason)
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()

	s.mu.Lock()
	out, err := s.eng.forward(ctx)
	if err != nil {
		if down := dgcl.DownDevices(err); len(down) > 0 {
			if rerr := s.eng.recover(down); rerr != nil {
				err = fmt.Errorf("serve: failover after losing %v: %w", down, rerr)
			} else {
				v := s.version.Add(1)
				s.cache.invalidateAll()
				s.stats.noteTransition(Transition{
					Down:      down,
					Survivors: s.sys.AliveDevices(),
					Version:   v,
				})
				out, err = s.eng.forward(ctx)
			}
		}
	}
	ver := s.version.Load()
	s.mu.Unlock()

	if err != nil {
		err = fmt.Errorf("serve: batched forward (%s, %d requests): %w", reason, len(batch), err)
		for _, r := range batch {
			r.ch <- response{err: err}
		}
		return
	}
	rows := make(map[int32][]float32, len(batch))
	for _, r := range batch {
		row, ok := rows[r.vertex]
		if !ok {
			row = append([]float32(nil), out.Row(int(r.vertex))...)
			rows[r.vertex] = row
			s.cache.put(r.vertex, ver, row)
		}
		r.ch <- response{row: row, version: ver}
	}
}

// UpdateModel swaps in new weights (cloned), bumps the model version, and
// invalidates the cache. It must not run while a training collective is in
// flight on the same system.
func (s *Server) UpdateModel(m *dgcl.Model) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.setModel(m); err != nil {
		return fmt.Errorf("serve: swapping model: %w", err)
	}
	s.version.Add(1)
	s.cache.invalidateAll()
	return nil
}

// EpochHook adapts UpdateModel to System.OnEpochEnd: register with
// sys.OnEpochEnd(srv.EpochHook) and every completed epoch (and every
// crash-recovery rebuild) refreshes the served weights and drops the now
// stale cache wholesale.
func (s *Server) EpochHook(epoch int, m *dgcl.Model) {
	if err := s.UpdateModel(m); err != nil {
		// The swap failed (e.g. the cluster is mid-rebuild); keep serving the
		// old weights but make sure no stale cache entry survives.
		s.mu.Lock()
		s.version.Add(1)
		s.cache.invalidateAll()
		s.mu.Unlock()
	}
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	return s.stats.snapshot(s.version.Load(), s.cache.len())
}

// Close drains the batcher (pending requests are answered) and stops the
// coalescing goroutine. Queries after Close shed with ErrOverload.
func (s *Server) Close() {
	s.closeOnce.Do(s.batcher.close)
}
