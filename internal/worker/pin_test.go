package worker

import (
	"context"
	"testing"

	"dgcl"
)

// Pins captured before the checksum consolidation (one FNV-64a in
// internal/fnv64) and the runtime client-loop merge: the model digest every
// process reports at the end of a run, and the loss trajectory and final
// weights of one small fixed spec. Neither refactor may move a bit.

func TestPinnedModelDigest(t *testing.T) {
	got := ModelDigest(dgcl.NewModel(dgcl.GCN, 8, 4, 2, 1))
	if want := uint64(0x2c94faecb8fb2a2d); got != want {
		t.Fatalf("ModelDigest = %#x, pinned %#x", got, want)
	}
}

func TestPinnedTrainLocal(t *testing.T) {
	rep, err := TrainLocal(context.Background(), Spec{
		Dataset: "Web-Google", Scale: 1024, Model: "GCN", GPUs: 4, Epochs: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1144.138227813004, 1117.6518654586835, 1115.0320604020465, 1112.8124794729847, 1112.9869207878774}
	if len(rep.Losses) != len(want) {
		t.Fatalf("%d losses %v, pinned %d", len(rep.Losses), rep.Losses, len(want))
	}
	for e, l := range rep.Losses {
		if l != want[e] {
			t.Errorf("epoch %d loss = %v, pinned %v", e, l, want[e])
		}
	}
	if wantSum := uint64(0xb80fc9130d49ccaa); rep.ModelSum != wantSum {
		t.Errorf("ModelSum = %#x, pinned %#x", rep.ModelSum, wantSum)
	}
}
