package topology

import "fmt"

// Builders for the paper's hardware configurations.

// dgx1NVLinks is the hybrid cube-mesh of the NVIDIA DGX-1 (Figure 3): GPUs
// 0-3 and 4-7 form two fully connected quads, and GPU i links to GPU i+4
// across the quads. The NV1/NV2 assignment follows the published DGX-1V
// connection matrix.
var dgx1NVLinks = []struct {
	a, b int
	t    LinkType
}{
	{0, 1, NV1}, {0, 2, NV1}, {0, 3, NV2}, {0, 4, NV2},
	{1, 2, NV2}, {1, 3, NV1}, {1, 5, NV2},
	{2, 3, NV2}, {2, 6, NV1},
	{4, 5, NV1}, {4, 6, NV1}, {4, 7, NV2},
	{5, 6, NV2}, {5, 7, NV1},
	{6, 7, NV2},
	{3, 7, NV1},
}

// addDGXMachine adds one 8-GPU DGX-1-style machine to the builder: two CPU
// sockets joined by QPI, two PCIe switches per socket with two GPUs each,
// host memory per socket (modeled as one node per machine), and a NIC under
// the first PCIe switch. It returns the GPU node ids and the NIC node id.
// If nvlink is false, the machine is the paper's second configuration (8
// 1080-Ti GPUs connected only via PCIe).
func addDGXMachine(b *Builder, machine int, nvlink bool) (gpus []NodeID, nic NodeID) {
	cpu0 := b.AddNode(CPU, machine, fmt.Sprintf("m%d.cpu0", machine))
	cpu1 := b.AddNode(CPU, machine, fmt.Sprintf("m%d.cpu1", machine))
	b.Connect(cpu0, cpu1, QPI)
	mem := b.AddNode(HostMem, machine, fmt.Sprintf("m%d.mem", machine))
	b.Connect(cpu0, mem, MemBus)
	b.Connect(cpu1, mem, MemBus)

	var switches []NodeID
	for s := 0; s < 4; s++ {
		cpu := cpu0
		if s >= 2 {
			cpu = cpu1
		}
		sw := b.AddNode(Switch, machine, fmt.Sprintf("m%d.pcie%d", machine, s))
		b.Connect(sw, cpu, PCIe)
		switches = append(switches, sw)
	}
	gpus = make([]NodeID, 8)
	for g := 0; g < 8; g++ {
		gpus[g] = b.AddNode(GPU, machine, fmt.Sprintf("m%d.gpu%d", machine, g))
		b.Connect(gpus[g], switches[g/2], PCIe)
	}
	if nvlink {
		for _, l := range dgx1NVLinks {
			b.Connect(gpus[l.a], gpus[l.b], l.t)
		}
	}
	nic = b.AddNode(NIC, machine, fmt.Sprintf("m%d.nic0", machine))
	b.Connect(nic, switches[0], PCIe)
	return gpus, nic
}

// DGX1 builds the 8-GPU NVIDIA DGX-1 topology of Figure 3 (the paper's
// default single-machine configuration).
func DGX1() *Topology {
	b := NewBuilder("dgx1")
	addDGXMachine(b, 0, true)
	return b.Build()
}

// TwoMachineDGX1 builds the paper's default 16-GPU configuration: two DGX-1
// servers whose GPUs communicate across machines through one shared IB NIC
// per machine.
func TwoMachineDGX1() *Topology {
	b := NewBuilder("2x-dgx1")
	_, nic0 := addDGXMachine(b, 0, true)
	_, nic1 := addDGXMachine(b, 1, true)
	b.Connect(nic0, nic1, IB)
	return b.Build()
}

// PCIeOnly8 builds the paper's second hardware configuration: one server
// with 8 1080-Ti GPUs connected via PCIe only (no NVLink).
func PCIeOnly8() *Topology {
	b := NewBuilder("pcie8")
	addDGXMachine(b, 0, false)
	return b.Build()
}

// SubDGX1 builds a DGX-1 restricted to the first n GPUs (n in 1..8), used by
// the GPU-count sweeps (Figures 2, 8, 9). The first four GPUs form a fully
// NVLink-connected quad, matching the paper's observation that with 4 or
// fewer GPUs every pair has a direct NVLink.
func SubDGX1(n int) *Topology {
	if n < 1 || n > 8 {
		panic(fmt.Sprintf("topology: SubDGX1 wants 1..8 GPUs, got %d", n))
	}
	b := NewBuilder(fmt.Sprintf("dgx1-%dgpu", n))
	cpu0 := b.AddNode(CPU, 0, "cpu0")
	cpu1 := b.AddNode(CPU, 0, "cpu1")
	b.Connect(cpu0, cpu1, QPI)
	mem := b.AddNode(HostMem, 0, "mem")
	b.Connect(cpu0, mem, MemBus)
	b.Connect(cpu1, mem, MemBus)
	var switches []NodeID
	for s := 0; s < 4; s++ {
		cpu := cpu0
		if s >= 2 {
			cpu = cpu1
		}
		sw := b.AddNode(Switch, 0, fmt.Sprintf("pcie%d", s))
		b.Connect(sw, cpu, PCIe)
		switches = append(switches, sw)
	}
	gpus := make([]NodeID, n)
	for g := 0; g < n; g++ {
		gpus[g] = b.AddNode(GPU, 0, fmt.Sprintf("gpu%d", g))
		b.Connect(gpus[g], switches[g/2], PCIe)
	}
	for _, l := range dgx1NVLinks {
		if l.a < n && l.b < n {
			b.Connect(gpus[l.a], gpus[l.b], l.t)
		}
	}
	return b.Build()
}

// ForGPUCount returns the paper's topology for a given GPU count: SubDGX1
// for 1..8 and the two-machine configuration for 16.
func ForGPUCount(n int) (*Topology, error) {
	switch {
	case n >= 1 && n <= 8:
		return SubDGX1(n), nil
	case n == 16:
		return TwoMachineDGX1(), nil
	default:
		return nil, fmt.Errorf("topology: no standard configuration with %d GPUs", n)
	}
}

// MultiMachineDGX1 builds a cluster of n DGX-1 servers whose NICs all
// attach to one non-blocking IB switch — the natural extension of the
// paper's two-machine setup for studying scaling beyond 16 GPUs. Each
// machine's cross-traffic shares its single NIC-to-switch IB link, so the
// per-machine NIC remains the scaling bottleneck, as in the paper.
func MultiMachineDGX1(n int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topology: MultiMachineDGX1 wants >=1 machines, got %d", n))
	}
	b := NewBuilder(fmt.Sprintf("%dx-dgx1", n))
	if n == 1 {
		addDGXMachine(b, 0, true)
		return b.Build()
	}
	sw := b.AddNode(Switch, 0, "ibswitch")
	for m := 0; m < n; m++ {
		_, nic := addDGXMachine(b, m, true)
		b.Connect(nic, sw, IB)
	}
	return b.Build()
}

// TwoMachineEthernet builds a 16-GPU configuration connected by Ethernet
// instead of IB, for studying slower cross-machine fabrics.
func TwoMachineEthernet() *Topology {
	b := NewBuilder("2x-dgx1-eth")
	_, nic0 := addDGXMachine(b, 0, true)
	_, nic1 := addDGXMachine(b, 1, true)
	b.Connect(nic0, nic1, Ethernet)
	return b.Build()
}
