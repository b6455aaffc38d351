package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dgcl"
	"dgcl/internal/serve"
	"dgcl/internal/worker"
)

const (
	// serveCacheEntries is 30% of serve-*'s 13,593 keys: the Zipf head fits,
	// the tail does not.
	serveCacheEntries = 4096
	// serveInFlight caps the generator's outstanding queries at the server's
	// default queue depth; a query due beyond it is counted as shed.
	serveInFlight = 256
	// rowChecks is how many served rows are compared with Trainer.Forward.
	rowChecks = 100
	// refreshEvery is serve-refresh's UpdateModel period, about every 15th
	// epoch of its spec. At 1000 QPS under half the queries then hit the
	// cache, so the nominal median is a miss: batch delay, forward, refill.
	refreshEvery = 50 * time.Millisecond
)

// popularity is a key space's popularity order: rank 0 is the hottest vertex.
// It is a seeded permutation, so the hot keys land in every partition, and it
// is shared by a run's phases, so the warm-up warms the keys the later
// phases ask for.
type popularity []int

func newPopularity(seed int64, vertices int) popularity {
	return rand.New(rand.NewSource(seed)).Perm(vertices)
}

// source returns a generator of Zipf(s=1.2) draws from the key space. The
// same seed gives the same sequence.
func (p popularity) source(seed int64) func() int {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(len(p)-1))
	return func() int { return p[zipf.Uint64()] }
}

func (p popularity) stream(seed int64, n int) []int {
	next := p.source(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// queryState is how one offered query ended.
type queryState uint8

const (
	queryAnswered queryState = iota
	queryShed
	queryFailed
)

// querySample is one offered query. Times are measured from the query's due
// time, so a stall charges the queries that were due during it.
type querySample struct {
	state  queryState
	cached bool
	// sentMs is how late the generator released the query; sentMs..endMs
	// brackets the Server.Query call.
	sentMs, endMs float64
}

func (q querySample) serviceMs() float64 { return q.endMs - q.sentMs }

// phase is one open-loop phase at a fixed rate.
type phase struct {
	qps     float64
	samples []querySample
}

// answered returns the from-due latencies of the answered queries.
func (p phase) answered() []float64 {
	var out []float64
	for _, q := range p.samples {
		if q.state == queryAnswered {
			out = append(out, q.endMs)
		}
	}
	return out
}

// medianLatency is the better decile over half-second windows (by due
// time) of the window's median from-due latency.
func (p phase) medianLatency() float64 {
	per := int(p.qps / 2)
	var medians []float64
	for lo := 0; lo < len(p.samples); lo += per {
		w := phase{qps: p.qps, samples: p.samples[lo:min(lo+per, len(p.samples))]}
		if a := w.answered(); len(a) > 0 {
			medians = append(medians, median(a))
		}
	}
	return lowDecile(medians)
}

func (p phase) count(pred func(querySample) bool) int {
	n := 0
	for _, q := range p.samples {
		if pred(q) {
			n++
		}
	}
	return n
}

// missed counts the queries that missed the latency limit: shed, failed, or
// answered later than sloMs after they were due.
func (p phase) missed() int {
	return p.count(func(q querySample) bool { return q.state != queryAnswered || q.endMs > sloMs })
}

func (p phase) failed() int {
	return p.count(func(q querySample) bool { return q.state == queryFailed })
}

// runPhase offers stream to srv at qps: one dispatcher releases one goroutine
// per due query, whatever became of the earlier ones (open loop). A non-nil
// rec gets a span around every Server.Query call.
func runPhase(ctx context.Context, rec *recorder, srv *serve.Server, stream []int, qps float64) phase {
	p := phase{qps: qps, samples: make([]querySample, len(stream))}
	interval := time.Duration(float64(time.Second) / qps)
	var inFlight atomic.Int64 // raised by the dispatcher alone, so the cap holds
	var wg sync.WaitGroup
	start := time.Now()
	for i, v := range stream {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		q := &p.samples[i]
		q.sentMs = ms(time.Since(due))
		if inFlight.Load() >= serveInFlight {
			q.state = queryShed
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			span := -1
			if rec != nil {
				span = rec.begin("serve.query", -1, i, laneQuery)
			}
			res, err := srv.Query(ctx, v)
			q.endMs = ms(time.Since(due))
			if rec != nil {
				rec.end(span)
			}
			switch {
			case err == nil:
				q.cached = res.Cached
			case errors.Is(err, serve.ErrOverload):
				q.state = queryShed
			default:
				q.state = queryFailed
			}
		}()
	}
	wg.Wait()
	return p
}

// setupServe times worker.Build(spec) through one pre-training epoch and a
// fresh server's first answered query.
func setupServe(ctx context.Context, spec worker.Spec) (built, *serve.Server, time.Duration, error) {
	t0 := time.Now()
	sys, model, features, targets, err := worker.Build(spec)
	if err != nil {
		return built{}, nil, 0, fmt.Errorf("build %s: %w", spec.Dataset, err)
	}
	b := built{sys: sys, features: features, targets: targets}
	if _, _, b.model, err = trainBatch(ctx, b, spec, model, 1); err != nil {
		return built{}, nil, 0, err
	}
	srv, err := serve.New(sys, b.model, features, serve.Config{CacheEntries: serveCacheEntries})
	if err != nil {
		return built{}, nil, 0, fmt.Errorf("serve: %w", err)
	}
	if _, err := srv.Query(ctx, 0); err != nil {
		srv.Close()
		return built{}, nil, 0, fmt.Errorf("serve: first query: %w", err)
	}
	return b, srv, time.Since(t0), nil
}

// checkServedRows compares served rows with the direct forward for sampled
// vertices. It runs while the server is idle: the system executes one
// collective at a time.
func checkServedRows(ctx context.Context, o *outcome, b built, srv *serve.Server, seed int64) error {
	tr, err := b.sys.NewTrainer(b.model, b.features, b.targets)
	if err != nil {
		return fmt.Errorf("row check: %w", err)
	}
	want, err := tr.ForwardContext(ctx, b.features.Rows)
	if err != nil {
		return fmt.Errorf("row check: forward: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rowChecks; i++ {
		v := rng.Intn(b.features.Rows)
		res, err := srv.Query(ctx, v)
		if err != nil {
			return fmt.Errorf("row check: query %d: %w", v, err)
		}
		row := want.Row(v)
		for j := range row {
			if res.Row[j] != row[j] {
				o.failf("served row of vertex %d differs from Trainer.Forward at column %d: %v vs %v", v, j, res.Row[j], row[j])
				return nil
			}
		}
	}
	return nil
}

// refresher calls UpdateModel every refreshEvery until stop is closed, and
// returns how long each call took.
func refresher(srv *serve.Server, model *dgcl.Model, stop <-chan struct{}) (durMs []float64, err error) {
	tick := time.NewTicker(refreshEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return durMs, err
		case <-tick.C:
			t0 := time.Now()
			if uerr := srv.UpdateModel(model); uerr != nil && err == nil {
				err = fmt.Errorf("refresh: %w", uerr)
			}
			durMs = append(durMs, ms(time.Since(t0)))
		}
	}
}

// saturation is the closed-loop phase: saturationClients callers, each
// sending its next query when the previous one is answered, so the server
// runs at its capacity without the backlog collapse an arrival schedule past
// the knee produces.
type saturation struct {
	answered, failed int
	// inTime counts, per window of the phase, the answers within sloMs.
	inTime []int
	window float64 // seconds
}

// goodput is the better decile over the windows of in-time answers per
// second.
func (s saturation) goodput() float64 {
	rates := make([]float64, len(s.inTime))
	for i, n := range s.inTime {
		rates[i] = float64(n) / s.window
	}
	return highDecile(rates)
}

// saturationClients equals the server's default MaxBatch: when every caller
// waits on a miss the batch is full and flushes at once.
const saturationClients = 32

// saturationWindows is how many windows the saturation phase is cut into.
const saturationWindows = 20

func runSaturation(ctx context.Context, srv *serve.Server, keys popularity, seed int64, seconds float64) saturation {
	per := make([]saturation, saturationClients)
	window := time.Duration(seconds * float64(time.Second) / saturationWindows)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		per[c].inTime = make([]int, saturationWindows)
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := keys.source(seed*saturationClients + int64(c))
			for {
				t0 := time.Now()
				win := int(t0.Sub(start) / window)
				if win >= saturationWindows {
					return
				}
				_, err := srv.Query(ctx, next())
				switch {
				case err != nil && !errors.Is(err, serve.ErrOverload):
					per[c].failed++
				case err == nil:
					per[c].answered++
					if ms(time.Since(t0)) <= sloMs {
						per[c].inTime[win]++
					}
				}
			}
		}()
	}
	wg.Wait()
	total := saturation{inTime: make([]int, saturationWindows), window: window.Seconds()}
	for _, p := range per {
		total.answered += p.answered
		total.failed += p.failed
		for i, n := range p.inTime {
			total.inTime[i] += n
		}
	}
	return total
}

// serveLoad is the three phases of a serve run against one fresh server.
type serveLoad struct {
	warm, nominal phase
	saturation    saturation
	refreshMs     []float64
	// before and after are the server's counters around the nominal phase.
	before, after serve.Stats
}

func (l *serveLoad) attempted() int {
	return len(l.warm.samples) + len(l.nominal.samples) + l.saturation.answered + l.saturation.failed
}

func (l *serveLoad) failed() int {
	return l.warm.failed() + l.nominal.failed() + l.saturation.failed
}

// runLoad offers the open-loop warm-up (10% of seconds) and nominal (60%)
// phases at nominalQPS, then the closed-loop saturation phase (30%), each
// with its own seeded stream over one popularity order, refreshing the model
// beside them when refresh is set.
func runLoad(ctx context.Context, rec *recorder, refresh bool, b built, srv *serve.Server, seed int64, seconds float64) (*serveLoad, error) {
	stop := make(chan struct{})
	var l serveLoad
	var refreshErr error
	var wg sync.WaitGroup
	if refresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.refreshMs, refreshErr = refresher(srv, b.model, stop)
		}()
	}
	keys := newPopularity(seed, b.features.Rows)
	l.warm = runPhase(ctx, rec, srv, keys.stream(seed*4+1, int(nominalQPS*seconds*0.1)), nominalQPS)
	l.before = srv.Stats()
	l.nominal = runPhase(ctx, rec, srv, keys.stream(seed*4+2, int(nominalQPS*seconds*0.6)), nominalQPS)
	l.after = srv.Stats()
	l.saturation = runSaturation(ctx, srv, keys, seed*4+3, seconds*0.3)
	close(stop)
	wg.Wait()
	return &l, refreshErr
}

// runServe is the untraced run of a serve-* workload.
func runServe(ctx context.Context, w workload, spec worker.Spec, seconds float64) (*outcome, error) {
	o := newOutcome()
	var b built
	var srv *serve.Server
	var setups []float64
	for i := 0; i < reps(setupReps, seconds); i++ {
		if srv != nil {
			srv.Close()
		}
		var d time.Duration
		var err error
		if b, srv, d, err = setupServe(ctx, spec); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.Close()
	if err := checkServedRows(ctx, o, b, srv, spec.Seed); err != nil {
		return nil, err
	}
	l, err := runLoad(ctx, nil, w.refresh, b, srv, spec.Seed, seconds)
	if err != nil {
		return nil, err
	}
	o.attempted = l.attempted()
	o.failed = l.failed()
	o.metrics["setup_s"] = lowDecile(setups)
	o.metrics["op_ms_p10"] = l.nominal.medianLatency()
	o.metrics["ops_per_s_p90"] = l.saturation.goodput()
	return o, nil
}
