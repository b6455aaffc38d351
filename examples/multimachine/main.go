// multimachine runs one training job split across two worker processes
// connected by real TCP sockets — the multi-process deployment shape of the
// paper, on loopback. A coordinator hands each worker its share of the
// cluster; the workers mesh over the wire transport (length-prefixed,
// checksummed frames with credit-based backpressure), exchange embeddings,
// losses, and gradients, and must finish with per-epoch losses and final
// weights bit-identical to a single-process run of the same spec.
//
// The same code spans real machines:
//
//	dgcltrain -listen :7000 -workers 2 -dataset Web-Google -gpus 4  # coordinator
//	dgclworker -connect coord-host:7000 -data worker-host:0         # each machine
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"dgcl/internal/worker"
)

func main() {
	spec := worker.Spec{
		Dataset:    "Web-Google",
		Scale:      4096,
		FeatureDim: 16,
		Model:      "GCN",
		Hidden:     8,
		Layers:     2,
		GPUs:       4,
		Epochs:     3,
		Seed:       7,
		LR:         0.01,
	}

	// The single-process baseline: whatever the distributed run produces
	// must match this bit for bit.
	local, err := worker.TrainLocal(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single process, %d GPUs in one address space: digest %#x\n", spec.GPUs, local.ModelSum)

	// The distributed run: a coordinator plus two worker "machines", each
	// hosting two of the four GPU ranks, connected only by TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const workers = 2
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := worker.Run(ctx, worker.WorkerOptions{Coordinator: ln.Addr().String()}); err != nil {
				log.Printf("worker %d: %v", i, err)
			}
		}(i)
	}
	report, err := worker.Supervise(ctx, ln, worker.SuperviseOptions{Workers: workers, Spec: spec})
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d processes over loopback TCP:        digest %#x\n", workers, report.ModelSum)
	for e := range report.Losses {
		match := "BIT-IDENTICAL"
		if report.Losses[e] != local.Losses[e] {
			match = "DIVERGED"
		}
		fmt.Printf("epoch %d: local %.6f  wire %.6f  %s\n", e, local.Losses[e], report.Losses[e], match)
	}
	if report.ModelSum != local.ModelSum {
		log.Fatalf("final weights diverged: %#x vs %#x", local.ModelSum, report.ModelSum)
	}
	fmt.Println("\nfinal weights bit-identical across deployment shapes: the wire is invisible to the math")
}
