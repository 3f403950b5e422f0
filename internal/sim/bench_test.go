package sim_test

import (
	"context"
	"fmt"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

// BenchmarkESPooledGST2 is the sim layer of the benchmark ladder (ROADMAP
// item 4a): whole Algorithm 2 runs with distinct proposals, stable from
// round 2, on one engine re-armed per run — what the sim transport's pool
// does per instance, and at n=256 the repo benchmark's sim_bign instance.
// Unlike a synchronous run (where three deliveries in four are dominated
// and skipped) the pre-GST round leaves half of all deliveries to merge.
func BenchmarkESPooledGST2(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			props := core.DistinctProposals(n)
			cfg := func(seed int64) sim.Config {
				return core.ConfigES(props, core.RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: seed}}})
			}
			eng, err := sim.New(cfg(0))
			if err != nil {
				b.Fatal(err)
			}
			// Warm the pooled storage, so allocs/op reads the same at any
			// -benchtime: recycled round inboxes swap rounds from run to run
			// and take a few runs until all of them have grown.
			for warm := 0; warm < 4; warm++ {
				if err := eng.Reset(cfg(0)); err != nil {
					b.Fatal(err)
				}
				if res := eng.Run(); !res.AllCorrectDecided() {
					b.Fatal("undecided")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Reset(cfg(int64(i + 1))); err != nil {
					b.Fatal(err)
				}
				res, err := eng.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllCorrectDecided() {
					b.Fatal("undecided")
				}
			}
		})
	}
}
