package worker

import (
	"context"
	"testing"

	"dgcl"
)

// Pins captured before the checksum consolidation (one FNV-64a in
// internal/fnv64), the runtime client-loop merge and the backward program's
// derivation from the forward one: the model digest every process reports at
// the end of a run, and the loss trajectory and final weights of small fixed
// specs. None of those refactors may move a bit.

func TestPinnedModelDigest(t *testing.T) {
	got := ModelDigest(dgcl.NewModel(dgcl.GCN, 8, 4, 2, 1))
	if want := uint64(0x2c94faecb8fb2a2d); got != want {
		t.Fatalf("ModelDigest = %#x, pinned %#x", got, want)
	}
}

func TestPinnedTrainLocal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    Spec
		losses  []float64
		wantSum uint64
	}{
		{
			name:    "web-google",
			spec:    Spec{Dataset: "Web-Google", Scale: 1024, Model: "GCN", GPUs: 4, Epochs: 5, Seed: 1},
			losses:  []float64{1144.138227813004, 1117.6518654586835, 1115.0320604020465, 1112.8124794729847, 1112.9869207878774},
			wantSum: 0xb80fc9130d49ccaa,
		},
		{
			// The benchmark's relay-heavy training spec (chan-orkut).
			name:    "com-orkut",
			spec:    Spec{Dataset: "Com-Orkut", Scale: 256, FeatureDim: 32, Model: "GCN", Hidden: 8, GPUs: 8, Epochs: 3, Seed: 1, LR: 0.001},
			losses:  []float64{15995.901056078128, 15992.688544138995, 15991.132405980683},
			wantSum: 0x9031a35dfdf7b979,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := TrainLocal(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Losses) != len(tc.losses) {
				t.Fatalf("%d losses %v, pinned %d", len(rep.Losses), rep.Losses, len(tc.losses))
			}
			for e, l := range rep.Losses {
				if l != tc.losses[e] {
					t.Errorf("epoch %d loss = %v, pinned %v", e, l, tc.losses[e])
				}
			}
			if rep.ModelSum != tc.wantSum {
				t.Errorf("ModelSum = %#x, pinned %#x", rep.ModelSum, tc.wantSum)
			}
		})
	}
}
