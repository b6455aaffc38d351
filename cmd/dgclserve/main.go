// Command dgclserve is the online-inference frontend: it builds a training
// run from the same deterministic spec as dgcltrain/dgclworker, optionally
// pretrains for a few epochs, and then serves vertex embeddings over TCP —
// from one forward per model version (the version's memo; concurrent queries
// that find none share one forward), admission controlled (token bucket +
// a bound on the misses waiting for a forward), and failover-capable (a
// device death under a forward degrades onto the survivors and keeps
// answering).
//
//	dgclserve -listen :7100 -dataset Web-Google -gpus 4 -train 3
//	dgclloadgen -connect host:7100 -qps 200 -requests 5000
//
// SIGINT/SIGTERM close the listener, finish in-flight replies, and print the
// final serve stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"dgcl"
	"dgcl/internal/serve"
	"dgcl/internal/worker"
)

func main() {
	listen := flag.String("listen", ":7100", "address to serve DGS1 requests on")
	dataset := flag.String("dataset", "Web-Google", "dataset from Table 4")
	model := flag.String("model", "GCN", "GCN | CommNet | GIN")
	gpus := flag.Int("gpus", 4, "GPU count (1-8 or 16)")
	scale := flag.Int("scale", 256, "dataset downscale factor")
	featureDim := flag.Int("feature-dim", 16, "input feature width (0 = dataset native)")
	hidden := flag.Int("hidden", 8, "hidden layer width")
	layers := flag.Int("layers", 2, "GNN depth")
	seed := flag.Int64("seed", 1, "random seed")
	train := flag.Int("train", 1, "pretraining epochs before serving")
	lr := flag.Float64("lr", 0.01, "pretraining learning rate")

	queueDepth := flag.Int("queue", 256, "shed threshold: misses waiting for a forward")
	cacheEntries := flag.Int("cache", 4096, "negative disables the memo (every miss runs a forward); other values change nothing")
	rate := flag.Float64("rate", 0, "admitted queries per second (0 = unlimited)")
	burst := flag.Int("burst", 64, "token-bucket burst")
	flag.Parse()

	if err := run(*listen, worker.Spec{
		Dataset:    *dataset,
		Model:      *model,
		GPUs:       *gpus,
		Scale:      *scale,
		FeatureDim: *featureDim,
		Hidden:     *hidden,
		Layers:     *layers,
		Seed:       *seed,
	}, *train, *lr, serve.Config{
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		RateLimit:    *rate,
		RateBurst:    *burst,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dgclserve:", err)
		os.Exit(1)
	}
}

func run(listen string, spec worker.Spec, epochs int, lr float64, cfg serve.Config) error {
	sys, model, features, targets, err := worker.Build(spec)
	if err != nil {
		return err
	}
	if epochs > 0 {
		fmt.Printf("pretraining %d epochs on %s (k=%d)...\n", epochs, spec.Dataset, spec.GPUs)
		res, err := sys.Train(context.Background(), model, features, targets, dgcl.TrainOptions{
			Epochs:       epochs,
			NewOptimizer: func() dgcl.Optimizer { return dgcl.NewSGD(float32(lr), 0) },
		})
		if err != nil {
			return fmt.Errorf("pretraining: %w", err)
		}
		model = res.Model
		fmt.Printf("pretrained: final loss %.6f\n", res.Losses[len(res.Losses)-1])
	}

	srv, err := serve.New(sys, model, features, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d vertex embeddings on %s (memo %v)\n", srv.NumVertices(), ln.Addr(), cfg.CacheEntries >= 0)

	stopping, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(stopping, func() { ln.Close() })

	if err := srv.ServeListener(ln); err != nil {
		return err
	}
	srv.Close()
	printStats(srv.Stats())
	return nil
}

func printStats(st serve.Stats) {
	fmt.Printf("served %d requests: %d hits, %d misses, %d shed (rate %d, queue %d), %d errors\n",
		st.Requests, st.Hits, st.Misses, st.ShedRate+st.ShedQueue, st.ShedRate, st.ShedQueue, st.Errors)
	fmt.Printf("forwards %d\n", st.Flushes)
	fmt.Printf("latency p50 %v p99 %v p999 %v (hit p99 %v, miss p99 %v)\n",
		st.P50, st.P99, st.P999, st.HitP99, st.MissP99)
	for _, t := range st.Transitions {
		fmt.Printf("failover: lost %v, serving from %v (model version %d)\n", t.Down, t.Survivors, t.Version)
	}
}
