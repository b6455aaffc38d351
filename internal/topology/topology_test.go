package topology

import (
	"testing"
)

func TestTableOneSpeeds(t *testing.T) {
	// Table 1 of the paper, GB/s.
	want := map[LinkType]float64{
		NV2: 48.35, NV1: 24.22, PCIe: 11.13, QPI: 9.56, IB: 6.37, Ethernet: 3.12,
	}
	for lt, gbps := range want {
		if got := lt.Bandwidth() / gb; got != gbps {
			t.Errorf("%v bandwidth = %v GB/s, want %v", lt, got, gbps)
		}
	}
	if !NV1.IsNVLink() || !NV2.IsNVLink() || PCIe.IsNVLink() {
		t.Error("IsNVLink misclassifies")
	}
}

func TestDGX1Shape(t *testing.T) {
	top := DGX1()
	if top.NumGPUs() != 8 {
		t.Fatalf("NumGPUs=%d want 8", top.NumGPUs())
	}
	if top.NumMachines() != 1 {
		t.Fatalf("NumMachines=%d want 1", top.NumMachines())
	}
	// Every GPU has exactly 4 NVLink neighbors in the cube mesh.
	for g := 0; g < 8; g++ {
		nb := top.NVLinkNeighbors(g)
		if len(nb) != 4 {
			t.Errorf("gpu %d NVLink neighbors = %v, want 4 of them", g, nb)
		}
	}
}

func TestDGX1EveryPairWithinTwoNVLinkHops(t *testing.T) {
	// The paper: "all GPU pairs in Figure 3 can be connected within two hops
	// of NVLink".
	top := DGX1()
	for a := 0; a < 8; a++ {
		nb := map[int]bool{}
		for _, x := range top.NVLinkNeighbors(a) {
			nb[x] = true
		}
		for b := 0; b < 8; b++ {
			if a == b || nb[b] {
				continue
			}
			ok := false
			for x := range nb {
				for _, y := range top.NVLinkNeighbors(x) {
					if y == b {
						ok = true
					}
				}
			}
			if !ok {
				t.Errorf("gpu %d to %d not reachable in 2 NVLink hops", a, b)
			}
		}
	}
}

func TestGPUChannelClasses(t *testing.T) {
	top := DGX1()
	// GPU0-GPU1: direct NVLink.
	ch, err := top.GPUChannel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassNVLink || len(ch.Hops) != 1 {
		t.Fatalf("gpu0-gpu1 channel = %+v, want single NVLink hop", ch)
	}
	// GPU0-GPU5 (0-based): no direct NVLink; direct channel goes through
	// PCIe-QPI-PCIe per Figure 3.
	ch, err = top.GPUChannel(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassCrossSocket {
		t.Fatalf("gpu0-gpu5 class = %v, want CrossSocket", ch.Class)
	}
	sawQPI := false
	for _, h := range ch.Hops {
		if top.Conn(h).Type == QPI {
			sawQPI = true
		}
		if top.Conn(h).Type.IsNVLink() {
			t.Fatalf("direct fabric channel must not use NVLink hops: %+v", ch)
		}
	}
	if !sawQPI {
		t.Fatalf("gpu0-gpu5 channel should cross QPI: %+v", ch)
	}
	// Bottleneck of a QPI-crossing path is the QPI speed.
	if bw := ch.Bottleneck(top); bw != QPI.Bandwidth() {
		t.Fatalf("bottleneck = %v, want QPI %v", bw, QPI.Bandwidth())
	}
	// Same-switch pair without NVLink: 1080-Ti config.
	p := PCIeOnly8()
	ch, err = p.GPUChannel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassSameSocket {
		t.Fatalf("pcie same-switch class = %v", ch.Class)
	}
}

func TestGPUChannelSelfError(t *testing.T) {
	if _, err := DGX1().GPUChannel(3, 3); err == nil {
		t.Fatal("expected error for self channel")
	}
}

func TestNVLinkPreferredOverPCIe(t *testing.T) {
	top := DGX1()
	ch, err := top.GPUChannel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassNVLink {
		t.Fatalf("gpu0-gpu3 should use NVLink, got %v", ch.Class)
	}
	if top.Conn(ch.Hops[0]).Type != NV2 {
		t.Fatalf("gpu0-gpu3 should pick the NV2 link, got %v", top.Conn(ch.Hops[0]).Type)
	}
}

func TestTwoMachineTopology(t *testing.T) {
	top := TwoMachineDGX1()
	if top.NumGPUs() != 16 || top.NumMachines() != 2 {
		t.Fatalf("gpus=%d machines=%d", top.NumGPUs(), top.NumMachines())
	}
	if top.GPUMachine(3) != 0 || top.GPUMachine(12) != 1 {
		t.Fatal("GPU machine assignment wrong")
	}
	ch, err := top.GPUChannel(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassCrossMachine {
		t.Fatalf("cross machine channel class = %v", ch.Class)
	}
	if bw := ch.Bottleneck(top); bw != IB.Bandwidth() {
		t.Fatalf("cross machine bottleneck = %v, want IB", bw)
	}
	// Intra-machine channels on machine 1 still NVLink.
	ch, err = top.GPUChannel(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassNVLink {
		t.Fatalf("machine-1 local channel class = %v", ch.Class)
	}
}

func TestHostChannel(t *testing.T) {
	top := DGX1()
	ch, err := top.HostChannel(6)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassHostSwap || ch.Dst != -1 {
		t.Fatalf("host channel = %+v", ch)
	}
	// Swap path is bottlenecked by PCIe.
	if bw := ch.Bottleneck(top); bw != PCIe.Bandwidth() {
		t.Fatalf("swap bottleneck = %v, want PCIe", bw)
	}
}

func TestSubDGX1(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		top := SubDGX1(n)
		if top.NumGPUs() != n {
			t.Fatalf("SubDGX1(%d) has %d GPUs", n, top.NumGPUs())
		}
	}
	// With 4 GPUs every pair has a direct NVLink (the paper's observation).
	top := SubDGX1(4)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			ch, err := top.GPUChannel(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if ch.Class != ClassNVLink {
				t.Fatalf("SubDGX1(4) pair %d-%d class %v, want NVLink", a, b, ch.Class)
			}
		}
	}
}

func TestSubDGX1Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for SubDGX1(0)")
		}
	}()
	SubDGX1(0)
}

func TestForGPUCount(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		top, err := ForGPUCount(n)
		if err != nil {
			t.Fatalf("ForGPUCount(%d): %v", n, err)
		}
		if top.NumGPUs() != n {
			t.Fatalf("ForGPUCount(%d) gave %d GPUs", n, top.NumGPUs())
		}
	}
	if _, err := ForGPUCount(12); err == nil {
		t.Fatal("expected error for 12 GPUs")
	}
	if _, err := ForGPUCount(0); err == nil {
		t.Fatal("expected error for 0 GPUs")
	}
}

func TestPCIeOnly8NoNVLink(t *testing.T) {
	top := PCIeOnly8()
	for _, c := range top.Conns() {
		if c.Type.IsNVLink() {
			t.Fatal("PCIeOnly8 must not contain NVLink")
		}
	}
	for g := 0; g < 8; g++ {
		if nb := top.NVLinkNeighbors(g); len(nb) != 0 {
			t.Fatalf("gpu %d has NVLink neighbors %v", g, nb)
		}
	}
}

func TestAllGPUChannels(t *testing.T) {
	top := DGX1()
	chans, err := top.AllGPUChannels()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				if chans[i][j] != nil {
					t.Fatal("diagonal should be nil")
				}
				continue
			}
			if chans[i][j] == nil || len(chans[i][j].Hops) == 0 {
				t.Fatalf("missing channel %d-%d", i, j)
			}
		}
	}
}

func TestEthernetConfig(t *testing.T) {
	top := TwoMachineEthernet()
	ch, err := top.GPUChannel(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bw := ch.Bottleneck(top); bw != Ethernet.Bandwidth() {
		t.Fatalf("ethernet bottleneck = %v", bw)
	}
}

func TestMultiMachineDGX1(t *testing.T) {
	top := MultiMachineDGX1(4)
	if top.NumGPUs() != 32 || top.NumMachines() != 4 {
		t.Fatalf("gpus=%d machines=%d", top.NumGPUs(), top.NumMachines())
	}
	// Cross-machine pairs route through the IB switch at IB speed.
	ch, err := top.GPUChannel(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassCrossMachine || ch.Bottleneck(top) != IB.Bandwidth() {
		t.Fatalf("cross pair: %+v bottleneck %v", ch, ch.Bottleneck(top))
	}
	// Intra-machine pairs on machine 3 still have NVLink.
	ch, err = top.GPUChannel(24, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassNVLink {
		t.Fatalf("machine-3 local pair class %v", ch.Class)
	}
	// Single machine degenerates to DGX-1.
	if MultiMachineDGX1(1).NumGPUs() != 8 {
		t.Fatal("single machine should be a DGX-1")
	}
}

func TestMultiMachineDGX1Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 machines")
		}
	}()
	MultiMachineDGX1(0)
}
