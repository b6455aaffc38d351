// Package serve is the online-inference frontend over a trained dgcl.System:
// a long-running embedding server that runs one distributed forward per
// model version and answers every query of that version from its output.
// The forward's whole output matrix is the version's memo. A query whose
// version has a memo reads its row there, with no batch, lock or
// allocation. A query that finds none enters the batcher, whose flush runs
// the version's forward (or finds the memo a previous flush just made). The
// server sheds load past a token-bucket rate or a queue-depth threshold with
// ErrOverload, and fails over onto survivors via System.Degrade when a
// device dies under a forward.
//
// Interleaving constraint: concurrent collectives on one System are
// unsupported, so serving and training must not overlap collectives. The
// supported pattern is phase-separated — train, then serve — with
// System.OnEpochEnd(server.EpochHook) bridging the two: the hook runs at
// epoch boundaries (no collective in flight), copies in the freshly stepped
// weights, and bumps the model version, which retires the memo.
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
	// version's memo: callers must not modify it.
	Row     []float32
	Version uint64
	// Cached reports that the query was answered from the current version's
	// memo without entering the batcher.
	Cached bool
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
	// CacheEntries, when negative, disables the memo: every query then goes
	// through a batched forward. Zero and positive values enable it and bound
	// nothing, since the memo is the output matrix a forward materialises
	// anyway.
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
	return c
}

// Server answers vertex-embedding queries over a trained system.
type Server struct {
	sys         *dgcl.System
	numVertices int
	// useMemo is false when Config.CacheEntries is negative.
	useMemo bool

	// version is the model version: bumped by UpdateModel/EpochHook and by
	// failover, under mu.
	version atomic.Uint64
	// memo is the last successful forward's output with the version it was
	// computed under; it answers queries while that version is current.
	memo atomic.Pointer[memo]

	// mu serializes forwards against model swaps and failover — only one
	// collective runs on the system at a time, and version/engine writes
	// happen under it.
	mu  sync.Mutex
	eng *engine

	limiter *tokenBucket
	stats   serverStats
	batcher *batcher

	closeOnce sync.Once
}

// memo is one forward's output under one model version. out is never
// written after the forward returns it, so its rows are shared with every
// caller.
type memo struct {
	version uint64
	out     *dgcl.Matrix
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
		useMemo:     cfg.CacheEntries >= 0,
		eng:         eng,
		limiter:     newTokenBucket(cfg.RateLimit, cfg.RateBurst, time.Now()),
	}
	s.batcher = newBatcher(cfg.MaxBatch, cfg.BatchDelay, cfg.QueueDepth, clock.Real{}, s.flush)
	return s, nil
}

// NumVertices is the valid query range: vertices are [0, NumVertices).
func (s *Server) NumVertices() int { return s.numVertices }

// Query answers one vertex-embedding query: from the memo when it holds the
// current model version, otherwise through the batcher. It returns
// ErrOverload when shed by admission control and ctx.Err when the caller
// gives up first.
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
	if m := s.current(); m != nil {
		s.stats.hits.Add(1)
		s.stats.lat.observe(time.Since(start), true)
		return Result{Row: m.out.Row(vertex), Version: m.version, Cached: true}, nil
	}
	req := request{vertex: int32(vertex), ch: make(chan response, 1)}
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
		s.stats.lat.observe(time.Since(start), false)
		return Result{Row: resp.row, Version: resp.version}, nil
	case <-ctx.Done():
		s.stats.errors.Add(1)
		return Result{}, ctx.Err()
	}
}

// current returns the memo if it holds the current model version. The memo
// answers for its own version even if one is minted after this check, so a
// row is never labelled with a version it was not computed under.
func (s *Server) current() *memo {
	if m := s.memo.Load(); m != nil && m.version == s.version.Load() {
		return m
	}
	return nil
}

// flush answers one batch from the current version's output.
func (s *Server) flush(batch []request, reason flushReason) {
	s.stats.noteFlush(len(batch), reason)
	s.mu.Lock()
	m, err := s.output()
	s.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("serve: batched forward (%s, %d requests): %w", reason, len(batch), err)
		for _, r := range batch {
			r.ch <- response{err: err}
		}
		return
	}
	for _, r := range batch {
		r.ch <- response{row: m.out.Row(int(r.vertex)), version: m.version}
	}
}

// output returns the current version's memo, running the version's forward
// when there is none yet. The caller holds s.mu and the batcher flushes
// serially, so the forward is single-flight: misses queued behind a
// version's forward find its memo on their flush. On a device-death failure
// output degrades the system onto the survivors, mints a version for the
// degraded replica, records the transition, and retries once.
func (s *Server) output() (*memo, error) {
	if m := s.current(); m != nil {
		return m, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()
	out, err := s.eng.forward(ctx)
	if down := dgcl.DownDevices(err); len(down) > 0 {
		if derr := s.sys.Degrade(down); derr != nil {
			return nil, fmt.Errorf("serve: failover after losing %v: %w", down, derr)
		}
		v := s.version.Add(1)
		s.stats.noteTransition(Transition{
			Down:      down,
			Survivors: s.sys.AliveDevices(),
			Version:   v,
		})
		out, err = s.eng.forward(ctx)
	}
	if err != nil {
		return nil, err
	}
	m := &memo{version: s.version.Load(), out: out}
	if s.useMemo {
		s.memo.Store(m)
	}
	return m, nil
}

// UpdateModel copies in new weights and bumps the model version, which
// retires the memo. m must have the served model's kind, depth and parameter
// shapes; otherwise it returns an error and the served version and answers
// stay as they were. It must not run while a training collective is in
// flight on the same system.
func (s *Server) UpdateModel(m *dgcl.Model) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.setModel(m); err != nil {
		return fmt.Errorf("serve: swapping model: %w", err)
	}
	s.version.Add(1)
	return nil
}

// EpochHook adapts UpdateModel to System.OnEpochEnd: register with
// sys.OnEpochEnd(srv.EpochHook) and every completed epoch (and every
// crash-recovery rebuild) refreshes the served weights under a new version.
func (s *Server) EpochHook(epoch int, m *dgcl.Model) {
	if err := s.UpdateModel(m); err != nil {
		// The swap failed; keep serving the old weights, but from a fresh
		// forward under a new version rather than a memo from before the
		// epoch boundary.
		s.mu.Lock()
		s.version.Add(1)
		s.mu.Unlock()
	}
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	rows := 0
	if m := s.current(); m != nil {
		rows = m.out.Rows
	}
	return s.stats.snapshot(s.version.Load(), rows)
}

// Close drains the batcher (pending requests are answered) and stops the
// coalescing goroutine. Queries after Close shed with ErrOverload.
func (s *Server) Close() {
	s.closeOnce.Do(s.batcher.close)
}
