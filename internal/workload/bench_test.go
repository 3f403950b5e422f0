package workload

import (
	"context"
	"testing"
)

// BenchmarkWorkloadSimVirtual runs the deterministic virtual plane: the
// cost is the per-proposal simulator runs plus the queueing model.
func BenchmarkWorkloadSimVirtual(b *testing.B) {
	spec := Spec{
		Seed: 42, Ops: 400, Rate: 300,
		Classes: []Class{
			{Name: "bulk", Weight: 3, Alg: ES, N: 4, GST: 2},
			{Name: "interactive", Weight: 1, Alg: ESS, N: 3, GST: 2, StableSource: 0},
		},
		Servers: 8, QueueDepth: 16, AdmitRate: 500, AdmitBurst: 32,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
