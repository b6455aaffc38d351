package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"dgcl/internal/obs"
)

// serverStats is the server's internal accumulator. Counters and latency
// histograms are atomic (hot path); the transition log is mutex'd.
type serverStats struct {
	requests  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	shedRate  atomic.Uint64
	shedQueue atomic.Uint64
	errors    atomic.Uint64
	forwards  atomic.Uint64

	lat latencies

	mu          sync.Mutex
	transitions []Transition
}

// latencies splits answered queries' latencies three ways: all of them, the
// memo answers (hits) and the forward answers (misses).
type latencies struct{ all, hit, miss obs.Histogram }

func (l *latencies) observe(d time.Duration, hit bool) {
	l.all.Observe(d)
	if hit {
		l.hit.Observe(d)
	} else {
		l.miss.Observe(d)
	}
}

// quantiles returns h's p50/p99/p999 (zeros when empty).
func quantiles(h *obs.Histogram) (p50, p99, p999 time.Duration) {
	return h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
}

// Transition records one serve-path failover: the devices that died, the
// survivors now answering, and the model version minted for the degraded
// replica (the memo of any earlier version no longer answers).
type Transition struct {
	Down      []int
	Survivors []int
	Version   uint64
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	Requests  uint64 // admitted or shed, including out-of-range errors
	Hits      uint64 // answered from the current version's memo
	Misses    uint64 // answered by a forward
	ShedRate  uint64 // rejected by the token bucket
	ShedQueue uint64 // rejected past QueueDepth waiting misses, or after Close
	Errors    uint64 // failed after admission (forward errors, cancellations)

	Flushes uint64 // forwards run
	// FlushFull is always 0; kept because cmd/dgclperf compiles against it
	// (ROADMAP 1(c)).
	FlushFull uint64

	// Latency quantiles are bucket upper bounds, at most 1/8 above the
	// exact nearest-rank value (obs.Histogram).
	P50, P99, P999             time.Duration // all served queries
	HitP50, HitP99, HitP999    time.Duration // memo answers only
	MissP50, MissP99, MissP999 time.Duration // forward answers only

	ModelVersion uint64
	// CacheEntries is the row count of the current version's memo: every
	// vertex once a forward has run under ModelVersion, 0 before that or
	// with the memo disabled.
	CacheEntries int

	// Transitions lists completed serve-path failovers, oldest first.
	Transitions []Transition
}

func (s *serverStats) noteTransition(t Transition) {
	s.mu.Lock()
	s.transitions = append(s.transitions, t)
	s.mu.Unlock()
}

// snapshot assembles a Stats.
func (s *serverStats) snapshot(version uint64, cacheEntries int) Stats {
	out := Stats{
		Requests:     s.requests.Load(),
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		ShedRate:     s.shedRate.Load(),
		ShedQueue:    s.shedQueue.Load(),
		Errors:       s.errors.Load(),
		Flushes:      s.forwards.Load(),
		ModelVersion: version,
		CacheEntries: cacheEntries,
	}
	out.P50, out.P99, out.P999 = quantiles(&s.lat.all)
	out.HitP50, out.HitP99, out.HitP999 = quantiles(&s.lat.hit)
	out.MissP50, out.MissP99, out.MissP999 = quantiles(&s.lat.miss)
	s.mu.Lock()
	out.Transitions = append([]Transition(nil), s.transitions...)
	s.mu.Unlock()
	return out
}
