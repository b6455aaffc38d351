package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dgcl/internal/core"
	"dgcl/internal/runtime"
)

// Fabric is a loopback wire cluster living in one process: K nodes, node i
// hosting device i, fully meshed over 127.0.0.1 TCP. Every client goroutine
// runs in-process but every cross-device payload crosses a real socket, so
// the chaos battery and the benchmarks exercise the same framing, credits,
// and failure mapping a multi-machine run does. A fabric built for K devices
// also serves a degraded K'<K cluster: transports route by external device
// id, so survivors keep addressing the same endpoints after Degrade.
//
// It implements runtime.TransportProvider; install it via Cluster.Provider
// or dgcl.RunOptions.Transport.
type Fabric struct {
	nodes []*Node
	owner map[int32]int
	pool  *runtime.MatrixPool
	seq   atomic.Uint64
}

// NewLoopbackFabric opens K loopback endpoints and forms the mesh.
func NewLoopbackFabric(k int, cfg Config) (*Fabric, error) {
	f := &Fabric{pool: &runtime.MatrixPool{}, owner: make(map[int32]int)}
	specs := make([]NodeSpec, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wire: fabric listen: %w", err)
		}
		n := NewNode(cfg, i, ln)
		n.pool = f.pool // shared: any node's reader may decode a buffer any other send reuses
		f.nodes = append(f.nodes, n)
		specs[i] = NodeSpec{Addr: ln.Addr().String(), Ranks: []int{i}}
		f.owner[int32(i)] = i
	}
	ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout)
	defer cancel()
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = n.Connect(ctx, specs)
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// CollectiveTransport implements runtime.TransportProvider over the whole
// mesh.
func (f *Fabric) CollectiveTransport(stages [][]core.Transfer, ids []int) runtime.Transport {
	seq := f.seq.Add(1)
	nodes := make(map[int]*Node, len(f.nodes))
	for i, n := range f.nodes {
		nodes[i] = n
		if seq > retireWindow {
			n.retireBelow(seq - retireWindow)
		}
	}
	return &meshTransport{seq: seq, nodes: nodes, owner: f.owner, ids: ids, pool: f.pool}
}

// Kill hard-closes device dev's node: its sockets drop mid-stream, peers see
// connection failures, and every transfer touching it maps to a
// DeviceDownError — the fail-stop failure model over real connections.
func (f *Fabric) Kill(dev int) {
	if dev >= 0 && dev < len(f.nodes) {
		f.nodes[dev].Close()
	}
}

// Close tears the whole fabric down, waiting for every reader goroutine to
// exit so goroutine-leak checks in tests see a clean shutdown. Safe to call
// more than once.
func (f *Fabric) Close() {
	for _, n := range f.nodes {
		if n != nil {
			n.Close()
		}
	}
}
