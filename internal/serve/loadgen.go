package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"dgcl/internal/comm/wire"
)

// The load generator drives a server with a Zipf-distributed query stream at
// a target QPS — the skewed access pattern real vertex-serving workloads see
// (a hot head of popular vertices, a long cold tail). It can drive a Server
// in-process (direct mode) or a dgclserve endpoint over TCP.

// LoadOptions configures one load run. Exactly one of Server and Addr must
// be set.
type LoadOptions struct {
	// Server drives an in-process server directly.
	Server *Server
	// Addr drives a remote dgclserve endpoint (one TCP connection per
	// worker).
	Addr string

	// Vertices is the query key space [0, Vertices).
	Vertices int
	// QPS is the target offered rate; 0 means unpaced (as fast as the
	// workers go).
	QPS float64
	// Requests is the total number of queries to issue.
	Requests int
	// Concurrency is the number of worker goroutines. Default 8.
	Concurrency int
	// ZipfS and ZipfV shape the vertex popularity distribution
	// (rand.NewZipf; s > 1, v >= 1). Defaults 1.2 and 1.
	ZipfS, ZipfV float64
	// Seed makes the query stream reproducible.
	Seed int64
}

// LoadReport summarizes one load run.
type LoadReport struct {
	QPS         float64       `json:"qps"` // target offered rate (0 = unpaced)
	Requests    int           `json:"requests"`
	OK          int           `json:"ok"`
	Cached      int           `json:"cached"`
	Shed        int           `json:"shed"`
	Failed      int           `json:"failed"`
	Elapsed     time.Duration `json:"elapsed"`
	AchievedQPS float64       `json:"achieved_qps"`

	// Latency quantiles are bucket upper bounds, at most 1/8 above the
	// exact nearest-rank value (obs.Histogram).
	P50, P99, P999             time.Duration // all successful queries
	HitP50, HitP99, HitP999    time.Duration // memo answers
	MissP50, MissP99, MissP999 time.Duration // forward answers

	HitRate float64 `json:"hit_rate"` // cached / ok
}

// RunLoad issues opts.Requests Zipf-distributed queries and reports the
// latency distribution. Offered load is paced on an absolute schedule
// (request i fires at start + i/QPS) so a slow burst doesn't silently shrink
// the offered rate.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if (opts.Server == nil) == (opts.Addr == "") {
		return nil, errors.New("loadgen: exactly one of Server and Addr must be set")
	}
	if opts.Vertices <= 0 {
		return nil, errors.New("loadgen: Vertices must be positive")
	}
	if opts.Requests <= 0 {
		return nil, errors.New("loadgen: Requests must be positive")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.ZipfS <= 1 {
		opts.ZipfS = 1.2
	}
	if opts.ZipfV < 1 {
		opts.ZipfV = 1
	}

	// Zipf ranks hit a fixed popularity order (0 most popular); the seeded
	// permutation scatters that order across the vertex id space so hot
	// vertices land in every partition.
	rng := rand.New(rand.NewSource(opts.Seed))
	zipf := rand.NewZipf(rng, opts.ZipfS, opts.ZipfV, uint64(opts.Vertices-1))
	perm := rng.Perm(opts.Vertices)
	vertices := make([]int, opts.Requests)
	for i := range vertices {
		vertices[i] = perm[int(zipf.Uint64())]
	}

	rep := &LoadReport{QPS: opts.QPS, Requests: opts.Requests}
	var (
		lat latencies
		mu  sync.Mutex // guards rep's counts
	)

	jobs := make(chan int)
	var wg sync.WaitGroup
	worker := func(query func(v int) (bool, error)) {
		defer wg.Done()
		for v := range jobs {
			t0 := time.Now()
			cached, err := query(v)
			d := time.Since(t0)
			mu.Lock()
			switch {
			case err == nil:
				lat.observe(d, cached)
				rep.OK++
				if cached {
					rep.Cached++
				}
			case errors.Is(err, ErrOverload) || strings.Contains(err.Error(), "overloaded"):
				rep.Shed++
			default:
				rep.Failed++
			}
			mu.Unlock()
		}
	}

	for i := 0; i < opts.Concurrency; i++ {
		wg.Add(1)
		if opts.Server != nil {
			srv := opts.Server
			go worker(func(v int) (bool, error) {
				res, err := srv.Query(ctx, v)
				return res.Cached, err
			})
		} else {
			conn, err := net.Dial("tcp", opts.Addr)
			if err != nil {
				close(jobs)
				return nil, fmt.Errorf("loadgen: dialing %s: %w", opts.Addr, err)
			}
			defer conn.Close()
			go worker(tcpQuerier(conn))
		}
	}

	start := time.Now()
	interval := time.Duration(0)
	if opts.QPS > 0 {
		interval = time.Duration(float64(time.Second) / opts.QPS)
	}
dispatch:
	for i, v := range vertices {
		if interval > 0 {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break dispatch
				}
			}
		}
		select {
		case jobs <- v:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.AchievedQPS = float64(rep.OK+rep.Shed+rep.Failed) / rep.Elapsed.Seconds()
	}
	rep.P50, rep.P99, rep.P999 = quantiles(&lat.all)
	rep.HitP50, rep.HitP99, rep.HitP999 = quantiles(&lat.hit)
	rep.MissP50, rep.MissP99, rep.MissP999 = quantiles(&lat.miss)
	if rep.OK > 0 {
		rep.HitRate = float64(rep.Cached) / float64(rep.OK)
	}
	return rep, nil
}

// tcpQuerier issues single-vertex DGS1 queries over one connection. A reply
// whose error slot mentions overload counts as shed on the client side.
func tcpQuerier(conn net.Conn) func(v int) (bool, error) {
	var id uint64
	return func(v int) (bool, error) {
		id++
		req := Request{Op: OpQuery, ID: id, Vertices: []int32{int32(v)}}
		if err := WriteRequest(conn, &req, requestTimeout); err != nil {
			return false, err
		}
		var reply QueryReply
		if err := wire.ReadControl(conn, &reply, requestTimeout); err != nil {
			return false, err
		}
		if reply.ID != id {
			return false, fmt.Errorf("loadgen: reply id %d for request %d", reply.ID, id)
		}
		if len(reply.Errors) != 1 || len(reply.Cached) != 1 {
			return false, fmt.Errorf("loadgen: malformed reply: %d slots", len(reply.Errors))
		}
		if reply.Errors[0] != "" {
			return false, errors.New(reply.Errors[0])
		}
		return reply.Cached[0], nil
	}
}

// FormatReport renders one report as a human-readable line block.
func FormatReport(r *LoadReport) string {
	var b strings.Builder
	pace := "unpaced"
	if r.QPS > 0 {
		pace = fmt.Sprintf("%g qps target", r.QPS)
	}
	fmt.Fprintf(&b, "%s: %d requests in %v (%.1f qps achieved)\n", pace, r.Requests, r.Elapsed.Round(time.Millisecond), r.AchievedQPS)
	fmt.Fprintf(&b, "  ok %d (%.1f%% cached)  shed %d  failed %d\n", r.OK, 100*r.HitRate, r.Shed, r.Failed)
	fmt.Fprintf(&b, "  latency p50 %v  p99 %v  p999 %v\n", r.P50, r.P99, r.P999)
	fmt.Fprintf(&b, "  hits    p50 %v  p99 %v  p999 %v\n", r.HitP50, r.HitP99, r.HitP999)
	fmt.Fprintf(&b, "  misses  p50 %v  p99 %v  p999 %v", r.MissP50, r.MissP99, r.MissP999)
	return b.String()
}
