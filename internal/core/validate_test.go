package core

import (
	"strings"
	"testing"

	"dgcl/internal/graph"
	"dgcl/internal/topology"
)

// Table-driven input validation for the planner front door: garbage option
// values must be rejected with a field-naming error before any planning
// work, and legal zero values must select defaults instead.

func TestSPSTOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    SPSTOptions
		wantErr string // "" = valid
	}{
		{"zero value", SPSTOptions{}, ""},
		{"defaults spelled out", SPSTOptions{ChunkSize: 16}, ""},
		{"ablations", SPSTOptions{DisableForwarding: true, TreePerSource: true}, ""},
		{"negative chunk", SPSTOptions{ChunkSize: -1}, "ChunkSize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted %+v", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending field %q", err, tc.wantErr)
			}
		})
	}
}

func TestPlanSPSTRejectsBadInputs(t *testing.T) {
	topo := topology.SubDGX1(4)
	rel := partitionFor(t, graph.Ring(64), topo, 1)
	cases := []struct {
		name  string
		bytes int64
		opts  SPSTOptions
	}{
		{"zero bytesPerVertex", 0, SPSTOptions{}},
		{"negative bytesPerVertex", -8, SPSTOptions{}},
		{"negative chunk", 256, SPSTOptions{ChunkSize: -16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := PlanSPST(rel, topo, tc.bytes, tc.opts); err == nil {
				t.Fatalf("PlanSPST accepted bytes=%d opts=%+v", tc.bytes, tc.opts)
			}
		})
	}
	// Mismatched fabric: the relation spans 4 GPUs, the topology 8.
	if _, _, err := PlanSPST(rel, topology.DGX1(), 256, SPSTOptions{}); err == nil {
		t.Fatal("PlanSPST accepted a relation/topology GPU-count mismatch")
	}
}

// TestSPSTOptionsDefaults pins the documented default resolution: a zero
// ChunkSize means 16.
func TestSPSTOptionsDefaults(t *testing.T) {
	d := SPSTOptions{}.withDefaults()
	if d.ChunkSize != 16 {
		t.Fatalf("withDefaults() = %+v, want ChunkSize 16", d)
	}
	keep := SPSTOptions{ChunkSize: 4}.withDefaults()
	if keep.ChunkSize != 4 {
		t.Fatalf("withDefaults() clobbered explicit values: %+v", keep)
	}
}
