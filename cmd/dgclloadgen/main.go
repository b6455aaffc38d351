// Command dgclloadgen drives an embedding server with Zipf-distributed
// queries at one or more target QPS points and reports the latency
// distribution (p50/p99/p999, split by memo answer vs forward answer) plus the
// share of memo answers. It can drive a remote dgclserve endpoint, or spin up a
// complete server in-process (-selfserve) for a quick look without a second
// terminal:
//
//	dgclloadgen -connect host:7100 -qps 100,300 -requests 5000
//	dgclloadgen -selfserve -dataset Web-Google -gpus 4 -qps 200,800 -requests 4000
//
// Its numbers are for reading, not gating: measured serve-path performance
// is cmd/dgclperf's serve-steady and serve-refresh workloads.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dgcl"
	"dgcl/internal/comm/wire"
	"dgcl/internal/serve"
	"dgcl/internal/worker"
)

func main() {
	connect := flag.String("connect", "", "dgclserve address to drive (mutually exclusive with -selfserve)")
	selfserve := flag.Bool("selfserve", false, "build and serve an in-process system over a loopback listener")
	qpsList := flag.String("qps", "200", "comma-separated target QPS points (0 = unpaced)")
	requests := flag.Int("requests", 2000, "queries per QPS point")
	concurrency := flag.Int("concurrency", 8, "worker goroutines")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf skew s (> 1)")
	zipfV := flag.Float64("zipf-v", 1, "Zipf v (>= 1)")
	seed := flag.Int64("seed", 1, "query stream seed")

	dataset := flag.String("dataset", "Web-Google", "dataset from Table 4 (selfserve)")
	model := flag.String("model", "GCN", "model kind (selfserve)")
	gpus := flag.Int("gpus", 4, "GPU count (selfserve)")
	scale := flag.Int("scale", 256, "dataset downscale factor (selfserve)")
	featureDim := flag.Int("feature-dim", 16, "input feature width (selfserve)")
	hidden := flag.Int("hidden", 8, "hidden layer width (selfserve)")
	layers := flag.Int("layers", 2, "GNN depth (selfserve)")
	train := flag.Int("train", 1, "pretraining epochs (selfserve)")
	cacheEntries := flag.Int("cache", 4096, "selfserve: negative disables the memo (every miss runs a forward); other values change nothing")
	flag.Parse()

	if err := run(options{
		connect: *connect, selfserve: *selfserve,
		qpsList: *qpsList, requests: *requests, concurrency: *concurrency,
		zipfS: *zipfS, zipfV: *zipfV, seed: *seed,
		spec: worker.Spec{
			Dataset: *dataset, Model: *model, GPUs: *gpus, Scale: *scale,
			FeatureDim: *featureDim, Hidden: *hidden, Layers: *layers, Seed: *seed,
		},
		train: *train,
		cfg:   serve.Config{CacheEntries: *cacheEntries},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dgclloadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	connect     string
	selfserve   bool
	qpsList     string
	requests    int
	concurrency int
	zipfS       float64
	zipfV       float64
	seed        int64
	spec        worker.Spec
	train       int
	cfg         serve.Config
}

func run(o options) error {
	if o.selfserve == (o.connect != "") {
		return fmt.Errorf("exactly one of -connect and -selfserve must be set")
	}
	var points []float64
	for _, s := range strings.Split(o.qpsList, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad -qps element %q: %w", s, err)
		}
		points = append(points, q)
	}

	addr := o.connect
	vertices := 0
	if o.selfserve {
		sys, model, features, targets, err := worker.Build(o.spec)
		if err != nil {
			return err
		}
		if o.train > 0 {
			res, err := sys.Train(context.Background(), model, features, targets, dgcl.TrainOptions{Epochs: o.train})
			if err != nil {
				return fmt.Errorf("pretraining: %w", err)
			}
			model = res.Model
		}
		srv, err := serve.New(sys, model, features, o.cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		go srv.ServeListener(ln)
		addr = ln.Addr().String()
		vertices = srv.NumVertices()
		fmt.Printf("selfserve: %d vertices on %s\n", vertices, addr)
	} else {
		n, err := remoteVertices(addr)
		if err != nil {
			return err
		}
		vertices = n
	}

	for _, qps := range points {
		rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
			Addr:        addr,
			Vertices:    vertices,
			QPS:         qps,
			Requests:    o.requests,
			Concurrency: o.concurrency,
			ZipfS:       o.zipfS,
			ZipfV:       o.zipfV,
			Seed:        o.seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(serve.FormatReport(rep))
	}
	return nil
}

// remoteVertices asks the server for its vertex count via an OpStats probe.
func remoteVertices(addr string) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("dialing %s: %w", addr, err)
	}
	defer conn.Close()
	if err := serve.WriteRequest(conn, &serve.Request{Op: serve.OpStats, ID: 1}, 10*time.Second); err != nil {
		return 0, err
	}
	var reply serve.StatsReply
	if err := wire.ReadControl(conn, &reply, 10*time.Second); err != nil {
		return 0, err
	}
	if reply.NumVertices <= 0 {
		return 0, fmt.Errorf("server reports %d vertices", reply.NumVertices)
	}
	return reply.NumVertices, nil
}
