package runtime_test

import (
	"testing"
	"time"

	"dgcl/internal/comm/wire"
	"dgcl/internal/core"
	"dgcl/internal/runtime"
	"dgcl/internal/runtime/transporttest"
)

// TestTransportConformance runs the shared battery against every Transport
// implementation in the tree from one table: the in-memory channel
// transport, the fault and retry decorators, and the TCP wire transport.
// A transfer's semantics must not depend on whether its bytes cross a
// channel or a socket.
func TestTransportConformance(t *testing.T) {
	chanFactory := func(t testing.TB, st [][]core.Transfer) (runtime.Transport, transporttest.Caps) {
		return runtime.NewChanTransport(st), transporttest.Caps{}
	}
	rows := []struct {
		name    string
		factory transporttest.Factory
	}{
		{"chan", chanFactory},
		{"fault", func(t testing.TB, st [][]core.Transfer) (runtime.Transport, transporttest.Caps) {
			// Drop-only faults: send-side rejections are retryable, so the
			// battery's retry loop absorbs them without any recv-side
			// consumption the stream-shaped cases could observe.
			inner, _ := chanFactory(t, st)
			cfg := runtime.FaultConfig{Seed: 3, Default: runtime.FaultRates{Drop: 0.3}}
			return runtime.NewFaultTransport(inner, cfg), transporttest.Caps{}
		}},
		{"retry", func(t testing.TB, st [][]core.Transfer) (runtime.Transport, transporttest.Caps) {
			inner, _ := chanFactory(t, st)
			faulty := runtime.NewFaultTransport(inner, runtime.FaultConfig{Seed: 5, Default: runtime.FaultRates{Drop: 0.3}})
			policy := runtime.DefaultRetryPolicy()
			policy.BaseBackoff = 20 * time.Microsecond
			return runtime.NewRetryTransport(faulty, policy, nil), transporttest.Caps{}
		}},
		{"wire", func(t testing.TB, st [][]core.Transfer) (runtime.Transport, transporttest.Caps) {
			k := 0
			for _, stage := range st {
				for _, tr := range stage {
					if tr.Src >= k {
						k = tr.Src + 1
					}
					if tr.Dst >= k {
						k = tr.Dst + 1
					}
				}
			}
			fab, err := wire.NewLoopbackFabric(k, wire.Config{ClusterID: "conformance"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fab.Close)
			return fab.CollectiveTransport(st, nil), transporttest.Caps{Close: fab.Close}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			transporttest.Run(t, row.factory)
		})
	}
}
