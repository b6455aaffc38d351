// Package serve is the online-inference frontend over a trained dgcl.System:
// a long-running embedding server that runs one distributed forward per
// model version and answers every query of that version from its output.
// The forward's whole output matrix is the version's memo. A query whose
// version has a memo reads its row there, with no lock or allocation. A
// query that finds none joins the one forward in flight, or runs it on its
// own goroutine when none is; concurrent misses share that flight. The
// server sheds load past a token-bucket rate or a bound on the misses
// waiting for a forward with ErrOverload, and fails over onto survivors via
// System.Degrade when a device dies under a forward.
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
)

// ErrOverload is returned by Query when admission control sheds the request:
// the token bucket is empty, QueueDepth misses already wait for a forward, or
// the server is closed.
// Clients should back off and retry; the server is healthy, just saturated.
var ErrOverload = errors.New("serve: overloaded")

// Result is one answered embedding query.
type Result struct {
	// Row is the vertex's embedding under Version. It is shared with the
	// version's memo: callers must not modify it.
	Row     []float32
	Version uint64
	// Cached reports that the query was answered from the current version's
	// memo without waiting for a forward.
	Cached bool
}

// Config tunes the server. The zero value gets sensible defaults.
type Config struct {
	// QueueDepth is the shed threshold: a miss beyond this many misses
	// waiting for a forward is rejected with ErrOverload. Default 256.
	QueueDepth int
	// CacheEntries, when negative, disables the memo: every query then waits
	// for a forward. Zero and positive values enable it and bound
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
	// forwardTimeout bounds one forward.
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

	// queueDepth bounds waiting, the misses waiting for a forward. waiting
	// goes up under flightMu, as a miss joins a flight, and down as it
	// leaves.
	queueDepth int64
	waiting    atomic.Int64

	// flightMu guards flight, the forward misses currently wait for, and
	// closed. It is taken under mu, never the other way round.
	flightMu sync.Mutex
	flight   *flight
	closed   bool
}

// flight is one forward shared by every miss that joins it before it ends.
// m and err are written once, before done closes.
type flight struct {
	done chan struct{}
	m    *memo
	err  error
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
		queueDepth:  int64(cfg.QueueDepth),
	}
	return s, nil
}

// NumVertices is the valid query range: vertices are [0, NumVertices).
func (s *Server) NumVertices() int { return s.numVertices }

// Query answers one vertex-embedding query: from the memo when it holds the
// current model version, otherwise from the forward in flight. It returns
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
	m, err := s.await(ctx)
	switch {
	case errors.Is(err, ErrOverload):
		s.stats.shedQueue.Add(1)
		return Result{}, err
	case err != nil:
		s.stats.errors.Add(1)
		return Result{}, err
	}
	s.stats.misses.Add(1)
	s.stats.lat.observe(time.Since(start), false)
	return Result{Row: m.out.Row(vertex), Version: m.version}, nil
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

// await returns the current version's memo from the forward in flight. The
// first miss to find none starts the flight and runs it on its own
// goroutine, whatever happens to its ctx meanwhile; every later miss waits
// for it or for its own ctx. It returns ErrOverload past QueueDepth waiting
// misses and after Close.
func (s *Server) await(ctx context.Context) (*memo, error) {
	s.flightMu.Lock()
	if s.closed || s.waiting.Load() >= s.queueDepth {
		s.flightMu.Unlock()
		return nil, ErrOverload
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	f := s.flight
	if f == nil {
		f = &flight{done: make(chan struct{})}
		s.flight = f
		s.flightMu.Unlock()
		s.fly(f)
		return f.m, f.err
	}
	s.flightMu.Unlock()
	select {
	case <-f.done:
		return f.m, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// fly runs flight f and answers its waiters.
func (s *Server) fly(f *flight) {
	s.mu.Lock()
	f.m, f.err = s.output()
	if f.err != nil {
		f.err = fmt.Errorf("serve: forward: %w", f.err)
	}
	// f leaves s.flight before s.mu is released. Once mu is free an
	// UpdateModel can retire f's version, and a miss issued after that
	// update returns must start a new flight, not join this finished one
	// and be answered at the retired version.
	s.flightMu.Lock()
	s.flight = nil
	s.flightMu.Unlock()
	s.mu.Unlock()
	close(f.done)
}

// output returns the current version's memo, running the version's forward
// when there is none yet. The caller holds s.mu, so forwards run one at a
// time, and a flight that starts after a version's forward finds its memo.
// On a device-death failure output degrades the system onto the survivors,
// mints a version for the degraded replica, records the transition, and
// retries once.
func (s *Server) output() (*memo, error) {
	if m := s.current(); m != nil {
		return m, nil
	}
	s.stats.forwards.Add(1)
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

// Close sheds every later miss with ErrOverload and waits out the forward in
// flight, whose waiters are answered. Memo answers go on as before.
func (s *Server) Close() {
	s.flightMu.Lock()
	s.closed = true
	f := s.flight
	s.flightMu.Unlock()
	if f != nil {
		<-f.done
	}
}
