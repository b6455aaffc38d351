// Command dgclworker hosts one process's share of a supervised multi-process
// training run. It joins the coordinator (a dgcltrain -listen process),
// receives its node id, client ranks, and the generation's address table,
// meshes with the other workers over TCP, trains its ranks under heartbeats,
// and reports the result back. Every process computes the same losses and
// final weights bit for bit.
//
//	dgcltrain -listen :7000 -workers 2 -dataset Web-Google -gpus 4   # coordinator
//	dgclworker -connect host:7000 -state /var/lib/dgcl/w0            # on each machine
//
// A worker killed mid-run can be restarted with -rejoin: it re-dials the
// coordinator with bounded backoff, presents the run identity persisted
// under -state, reclaims its slot, and catches up from the newest checkpoint
// epoch every member holds. SIGTERM/SIGINT drain gracefully: the worker
// finishes its in-flight epoch, flushes a checkpoint, tells the coordinator
// it is leaving, and exits 0.
//
// On a real cluster pass -data host:0 (or host:port) so peers dial a
// routable address instead of loopback.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dgcl/internal/worker"
)

func main() {
	connect := flag.String("connect", "", "coordinator address (host:port), required")
	data := flag.String("data", "127.0.0.1:0", "bind/advertise address for the peer data listener")
	state := flag.String("state", "", "directory for durable worker state (membership identity + checkpoints)")
	rejoin := flag.Bool("rejoin", false, "rejoin the run persisted under -state instead of joining fresh")
	dialTries := flag.Int("dial-tries", 1, "coordinator dial attempts before giving up")
	timeout := flag.Duration("timeout", 15*time.Minute, "overall deadline for the run")
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "dgclworker: -connect is required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// SIGTERM/SIGINT request a graceful drain, polled at epoch boundaries. A
	// second signal kills the process the usual way (the handler is reset
	// once the drain is requested).
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		select {
		case <-sigs:
			signal.Stop(sigs)
			close(drain)
		case <-ctx.Done():
		}
	}()
	defer signal.Stop(sigs)

	report, err := worker.Run(ctx, worker.WorkerOptions{
		Coordinator: *connect,
		DataBind:    *data,
		StateDir:    *state,
		Rejoin:      *rejoin,
		Backoff:     worker.BackoffConfig{Tries: *dialTries},
		Drain:       drain,
	})
	if errors.Is(err, worker.ErrDrained) {
		fmt.Println("drained")
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgclworker:", err)
		os.Exit(1)
	}
	for e, loss := range report.Losses {
		fmt.Printf("epoch %d: loss %.6f\n", e, loss)
	}
	fmt.Printf("final model digest %#x\n", report.ModelSum)
}
