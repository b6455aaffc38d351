package gnn

import (
	"bytes"
	"strings"
	"testing"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	for _, kind := range AllModels {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m := NewModel(kind, 6, 5, 2, 42)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != m.Kind || len(got.Layers) != len(m.Layers) {
				t.Fatalf("structure changed: %v/%d", got.Kind, len(got.Layers))
			}
			for li := range m.Layers {
				wp, gp := m.Layers[li].Params(), got.Layers[li].Params()
				if len(wp) != len(gp) {
					t.Fatalf("layer %d param count", li)
				}
				for pi := range wp {
					if tensor.MaxAbsDiff(wp[pi], gp[pi]) != 0 {
						t.Fatalf("layer %d param %d changed", li, pi)
					}
				}
			}
		})
	}
}

func TestCheckpointResumesTraining(t *testing.T) {
	// Training for 5 epochs must equal training 2, checkpointing, loading,
	// and training 3 more.
	g := graph.Ring(30)
	features := tensor.New(30, 4).FillRandom(1)
	mkSD := func(m *Model) *SingleDevice {
		sd := NewSingleDevice(m, g, 2)
		return sd
	}
	straight := NewModel(GCN, 4, 3, 2, 7)
	sdA := mkSD(straight)
	for i := 0; i < 5; i++ {
		sdA.Epoch(features)
		straight.Step(0.01)
	}

	resumed := NewModel(GCN, 4, 3, 2, 7)
	sdB := mkSD(resumed)
	for i := 0; i < 2; i++ {
		sdB.Epoch(features)
		resumed.Step(0.01)
	}
	var buf bytes.Buffer
	if err := resumed.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sdC := mkSD(loaded)
	for i := 0; i < 3; i++ {
		sdC.Epoch(features)
		loaded.Step(0.01)
	}
	for li := range straight.Layers {
		for pi, p := range straight.Layers[li].Params() {
			if diff := tensor.MaxAbsDiff(p, loaded.Layers[li].Params()[pi]); diff != 0 {
				t.Fatalf("resume diverged at layer %d param %d: %v", li, pi, diff)
			}
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	cases := []string{
		"",
		"NOTMAGIC",
		"DGCLCKPT",                     // truncated after magic
		"DGCLCKPT\x03\x00\x00\x00GCN",  // truncated after kind
		"DGCLCKPT\x04\x00\x00\x00BLOB", // unknown kind
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

func TestCheckpointRejectsImplausible(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("DGCLCKPT")
	buf.Write([]byte{3, 0, 0, 0})
	buf.WriteString("GCN")
	buf.Write([]byte{255, 255, 255, 127}) // absurd layer count
	if _, err := Load(&buf); err == nil {
		t.Fatal("absurd layer count should fail")
	}
}
