// Package topology models the physical communication fabric of a GPU
// cluster: GPUs, CPU sockets, PCIe switches, NICs and host memory connected
// by typed physical links (NVLink, PCIe, QPI, IB, Ethernet). It provides the
// builders for the paper's hardware configurations (the NVIDIA DGX-1 of
// Figure 3, the two-machine 16-GPU setup, and the PCIe-only 8-GPU server) and
// computes the physical hop chains that logical GPU-to-GPU channels traverse.
package topology

import (
	"fmt"
	"sort"
)

// LinkType classifies a physical connection. Bandwidths follow Table 1 of
// the paper (measured GB/s on the authors' testbed).
type LinkType int

const (
	NV2      LinkType = iota // two bonded NVLinks
	NV1                      // single NVLink
	PCIe                     // PCIe 3.0 x16 hop
	QPI                      // cross-socket interconnect
	IB                       // InfiniBand NIC-to-NIC
	Ethernet                 // commodity Ethernet
	MemBus                   // CPU to host memory (not a bottleneck)
)

const gb = 1e9 // bytes per GB/s unit

// tableOneSpeeds holds Table 1 of the paper, in bytes/second.
var tableOneSpeeds = [...]float64{
	NV2:      48.35 * gb,
	NV1:      24.22 * gb,
	PCIe:     11.13 * gb,
	QPI:      9.56 * gb,
	IB:       6.37 * gb,
	Ethernet: 3.12 * gb,
	MemBus:   60.0 * gb,
}

var linkTypeNames = [...]string{
	NV2: "NV2", NV1: "NV1", PCIe: "PCIe", QPI: "QPI", IB: "IB",
	Ethernet: "Ethernet", MemBus: "MemBus",
}

// Bandwidth returns the nominal bandwidth of the link type in bytes/second.
func (t LinkType) Bandwidth() float64 { return tableOneSpeeds[t] }

// IsNVLink reports whether the type is an NVLink variant.
func (t LinkType) IsNVLink() bool { return t == NV1 || t == NV2 }

func (t LinkType) String() string {
	if int(t) < len(linkTypeNames) {
		return linkTypeNames[t]
	}
	return fmt.Sprintf("LinkType(%d)", int(t))
}

// NodeKind classifies a fabric node.
type NodeKind int

const (
	GPU NodeKind = iota
	CPU
	Switch
	NIC
	HostMem
)

func (k NodeKind) String() string {
	switch k {
	case GPU:
		return "GPU"
	case CPU:
		return "CPU"
	case Switch:
		return "Switch"
	case NIC:
		return "NIC"
	case HostMem:
		return "HostMem"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// NodeID identifies a fabric node within a Topology.
type NodeID int32

// Node is one element of the fabric.
type Node struct {
	ID      NodeID
	Kind    NodeKind
	Machine int // machine (server) index
	GPU     int // GPU index if Kind==GPU, else -1
	Name    string
}

// Conn is a full-duplex physical connection between two fabric nodes. The
// same Conn is the contention domain: concurrent transfers crossing it in a
// stage share its bandwidth.
type Conn struct {
	ID        int
	A, B      NodeID
	Type      LinkType
	Bandwidth float64 // bytes/second
}

// Other returns the endpoint of c opposite to n.
func (c Conn) Other(n NodeID) NodeID {
	if c.A == n {
		return c.B
	}
	return c.A
}

// Topology is an immutable description of the fabric.
type Topology struct {
	Name     string
	nodes    []Node
	conns    []Conn
	adj      [][]int  // node -> indices into conns
	gpuNodes []NodeID // gpu index -> node
	memNodes []NodeID // machine -> host memory node
	machines int
}

// Builder incrementally constructs a Topology.
type Builder struct {
	t Topology
}

// NewBuilder returns an empty topology builder with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: Topology{Name: name}}
}

// AddNode adds a fabric node and returns its id.
func (b *Builder) AddNode(kind NodeKind, machine int, name string) NodeID {
	id := NodeID(len(b.t.nodes))
	n := Node{ID: id, Kind: kind, Machine: machine, GPU: -1, Name: name}
	if kind == GPU {
		n.GPU = len(b.t.gpuNodes)
		b.t.gpuNodes = append(b.t.gpuNodes, id)
	}
	if kind == HostMem {
		for len(b.t.memNodes) <= machine {
			b.t.memNodes = append(b.t.memNodes, -1)
		}
		b.t.memNodes[machine] = id
	}
	if machine+1 > b.t.machines {
		b.t.machines = machine + 1
	}
	b.t.nodes = append(b.t.nodes, n)
	return id
}

// Connect adds a physical connection of the given type at its nominal
// (Table 1) bandwidth and returns its id.
func (b *Builder) Connect(a, bn NodeID, t LinkType) int {
	return b.ConnectBW(a, bn, t, t.Bandwidth())
}

// ConnectBW adds a physical connection with an explicit bandwidth.
func (b *Builder) ConnectBW(a, bn NodeID, t LinkType, bw float64) int {
	id := len(b.t.conns)
	b.t.conns = append(b.t.conns, Conn{ID: id, A: a, B: bn, Type: t, Bandwidth: bw})
	return id
}

// Build finalizes the topology.
func (b *Builder) Build() *Topology {
	t := b.t
	t.adj = make([][]int, len(t.nodes))
	for i, c := range t.conns {
		t.adj[c.A] = append(t.adj[c.A], i)
		t.adj[c.B] = append(t.adj[c.B], i)
	}
	return &t
}

// NumGPUs returns the number of GPU nodes.
func (t *Topology) NumGPUs() int { return len(t.gpuNodes) }

// NumMachines returns the number of machines (servers).
func (t *Topology) NumMachines() int { return t.machines }

// Nodes returns all fabric nodes (shared slice; do not modify).
func (t *Topology) Nodes() []Node { return t.nodes }

// Conns returns all physical connections (shared slice; do not modify).
func (t *Topology) Conns() []Conn { return t.conns }

// Conn returns the physical connection with the given id.
func (t *Topology) Conn(id int) Conn { return t.conns[id] }

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// GPUNode returns the fabric node id of GPU gpu.
func (t *Topology) GPUNode(gpu int) NodeID { return t.gpuNodes[gpu] }

// GPUMachine returns the machine hosting GPU gpu.
func (t *Topology) GPUMachine(gpu int) int { return t.nodes[t.gpuNodes[gpu]].Machine }

// HostMemNode returns the host-memory node of the given machine, or -1.
func (t *Topology) HostMemNode(machine int) NodeID {
	if machine < len(t.memNodes) {
		return t.memNodes[machine]
	}
	return -1
}

// route finds the physical hop chain between two fabric nodes that maximizes
// the bottleneck bandwidth (ties broken by fewer hops), never routing
// *through* a GPU node: relaying via a GPU is a planner-level decision, not a
// fabric property. It returns conn indices in order, or nil if unreachable.
func (t *Topology) route(src, dst NodeID) []int {
	type state struct {
		bottleneck float64
		hops       int
		via        int // conn used to reach this node, -1 for src
		prev       NodeID
	}
	const inf = 1e30
	best := make([]state, len(t.nodes))
	for i := range best {
		best[i] = state{bottleneck: -1, via: -1, prev: -1}
	}
	best[src] = state{bottleneck: inf, via: -1, prev: -1}
	// Simple O(V^2) widest-path Dijkstra; fabric graphs are tiny (<100 nodes).
	done := make([]bool, len(t.nodes))
	for {
		u := NodeID(-1)
		for i := range t.nodes {
			if done[i] || best[i].bottleneck < 0 {
				continue
			}
			if u < 0 || best[i].bottleneck > best[u].bottleneck ||
				(best[i].bottleneck == best[u].bottleneck && best[i].hops < best[u].hops) {
				u = NodeID(i)
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		if u == dst {
			break
		}
		if (t.nodes[u].Kind == GPU || t.nodes[u].Kind == HostMem) && u != src {
			continue // GPUs and host memory are endpoints, never relays
		}
		for _, ci := range t.adj[u] {
			c := t.conns[ci]
			v := c.Other(u)
			bw := best[u].bottleneck
			if c.Bandwidth < bw {
				bw = c.Bandwidth
			}
			if bw > best[v].bottleneck ||
				(bw == best[v].bottleneck && best[u].hops+1 < best[v].hops) {
				best[v] = state{bottleneck: bw, hops: best[u].hops + 1, via: ci, prev: u}
			}
		}
	}
	if best[dst].bottleneck < 0 {
		return nil
	}
	var hops []int
	for n := dst; n != src; n = best[n].prev {
		hops = append(hops, best[n].via)
	}
	// Reverse into src→dst order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return hops
}

// ChannelClass describes how a logical GPU-to-GPU channel is realized; it
// drives the runtime's automatic communication method selection (§6.2).
type ChannelClass int

const (
	ClassNVLink       ChannelClass = iota // direct NVLink peer access
	ClassSameSocket                       // CUDA virtual memory over shared PCIe fabric
	ClassCrossSocket                      // pinned host memory across QPI
	ClassCrossMachine                     // helper thread + NIC
	ClassHostSwap                         // GPU <-> host memory (swap baseline)
)

func (c ChannelClass) String() string {
	switch c {
	case ClassNVLink:
		return "NVLink"
	case ClassSameSocket:
		return "SameSocket"
	case ClassCrossSocket:
		return "CrossSocket"
	case ClassCrossMachine:
		return "CrossMachine"
	case ClassHostSwap:
		return "HostSwap"
	}
	return fmt.Sprintf("ChannelClass(%d)", int(c))
}

// Channel is the logical link between a pair of GPUs (or a GPU and host
// memory). It is the unit the planner reasons about; Hops are the physical
// connections it occupies, in order.
type Channel struct {
	Src, Dst int // GPU indices; Dst==-1 means host memory of Src's machine
	Class    ChannelClass
	Hops     []int // conn indices
}

// Bottleneck returns the lowest hop bandwidth of the channel in bytes/s.
func (ch Channel) Bottleneck(t *Topology) float64 {
	b := 1e30
	for _, h := range ch.Hops {
		if bw := t.conns[h].Bandwidth; bw < b {
			b = bw
		}
	}
	return b
}

// DirectedHop is a physical connection traversed in a specific direction
// (Forward means from Conn.A to Conn.B). Opposite directions of a
// full-duplex connection are independent contention domains.
type DirectedHop struct {
	Conn    int
	Forward bool
}

// Slot returns a dense index for the directed hop (conn*2 + direction).
func (h DirectedHop) Slot() int {
	s := h.Conn * 2
	if !h.Forward {
		s++
	}
	return s
}

// DirectedHops walks the channel's hop chain from its source endpoint and
// returns each hop with its traversal direction.
func (t *Topology) DirectedHops(ch Channel) []DirectedHop {
	cur := t.gpuNodes[ch.Src]
	out := make([]DirectedHop, len(ch.Hops))
	for i, hi := range ch.Hops {
		c := t.conns[hi]
		if c.A == cur {
			out[i] = DirectedHop{Conn: hi, Forward: true}
			cur = c.B
		} else {
			out[i] = DirectedHop{Conn: hi, Forward: false}
			cur = c.A
		}
	}
	return out
}

// GPUChannel computes the direct channel between GPUs src and dst: NVLink if
// a direct NVLink connection exists, otherwise the best path through the
// PCIe/QPI/NIC fabric. It returns an error when the GPUs cannot reach each
// other.
func (t *Topology) GPUChannel(src, dst int) (Channel, error) {
	if src == dst {
		return Channel{}, fmt.Errorf("topology: channel to self (gpu %d)", src)
	}
	a, b := t.gpuNodes[src], t.gpuNodes[dst]
	// Prefer a direct NVLink connection (the fastest if several exist).
	bestConn, bestBW := -1, 0.0
	for _, ci := range t.adj[a] {
		c := t.conns[ci]
		if c.Other(a) == b && c.Type.IsNVLink() && c.Bandwidth > bestBW {
			bestConn, bestBW = ci, c.Bandwidth
		}
	}
	if bestConn >= 0 {
		return Channel{Src: src, Dst: dst, Class: ClassNVLink, Hops: []int{bestConn}}, nil
	}
	hops := t.route(a, b)
	if hops == nil {
		return Channel{}, fmt.Errorf("topology: no path from gpu %d to gpu %d", src, dst)
	}
	class := ClassSameSocket
	for _, h := range hops {
		switch t.conns[h].Type {
		case QPI:
			if class == ClassSameSocket {
				class = ClassCrossSocket
			}
		case IB, Ethernet:
			class = ClassCrossMachine
		}
	}
	return Channel{Src: src, Dst: dst, Class: class, Hops: hops}, nil
}

// HostChannel computes the swap channel between GPU gpu and its machine's
// host memory (used by the NeuGraph-style swap baseline).
func (t *Topology) HostChannel(gpu int) (Channel, error) {
	m := t.GPUMachine(gpu)
	mem := t.HostMemNode(m)
	if mem < 0 {
		return Channel{}, fmt.Errorf("topology: machine %d has no host memory node", m)
	}
	hops := t.route(t.gpuNodes[gpu], mem)
	if hops == nil {
		return Channel{}, fmt.Errorf("topology: gpu %d cannot reach host memory", gpu)
	}
	return Channel{Src: gpu, Dst: -1, Class: ClassHostSwap, Hops: hops}, nil
}

// AllGPUChannels returns the direct channel for every ordered GPU pair,
// indexed [src][dst] (nil on the diagonal).
func (t *Topology) AllGPUChannels() ([][]*Channel, error) {
	n := t.NumGPUs()
	out := make([][]*Channel, n)
	for i := 0; i < n; i++ {
		out[i] = make([]*Channel, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ch, err := t.GPUChannel(i, j)
			if err != nil {
				return nil, err
			}
			out[i][j] = &ch
		}
	}
	return out, nil
}

// NVLinkNeighbors returns the GPUs directly connected to gpu by NVLink,
// sorted ascending.
func (t *Topology) NVLinkNeighbors(gpu int) []int {
	a := t.gpuNodes[gpu]
	var out []int
	seen := map[int]bool{}
	for _, ci := range t.adj[a] {
		c := t.conns[ci]
		if !c.Type.IsNVLink() {
			continue
		}
		o := t.nodes[c.Other(a)]
		if o.Kind == GPU && !seen[o.GPU] {
			seen[o.GPU] = true
			out = append(out, o.GPU)
		}
	}
	sort.Ints(out)
	return out
}
