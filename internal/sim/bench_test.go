package sim_test

import (
	"context"
	"fmt"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

// BenchmarkESPooledGST2 is the sim layer of the benchmark ladder: whole
// Algorithm 2 runs with distinct proposals, stable from round 2, on one
// engine re-armed per run — what the sim transport's pool does per
// instance, and at n=256 the repo benchmark's sim_bign instance.
// A run has four rounds. The pre-GST round 1 is delivered envelope by
// envelope, late envelopes included. Round 2 is timely and its sets are
// pairwise distinct: their union is merged once and shared. Rounds 3 and
// 4 carry one set, so every delivery is dominated and only counted. Half
// of all deliveries are dominated (a synchronous run: three in four).
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

// BenchmarkESConsensusLossy is an ES run with the scenario plane's link
// faults dialed in (10% loss, 10% duplication): it measures what the
// per-delivery fault draws and the extra duplicate deliveries cost on the
// hot path. Termination is not asserted — loss deliberately voids the
// guarantee; the run bound caps the work instead.
func BenchmarkESConsensusLossy(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			props := core.DistinctProposals(n)
			b.ReportAllocs()
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := core.RunES(props, core.RunOpts{
					Policy:   &env.ES{GST: 6, Pre: env.MS{Seed: int64(i)}},
					Scenario: &env.Scenario{Seed: int64(i), LossPct: 10, DupPct: 10},
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			if rounds == 0 {
				b.Fatal("no rounds executed")
			}
		})
	}
}

// esBatchConfigs builds one ES trial grid (fresh policies every call).
func esBatchConfigs(runs, n int) []sim.Config {
	cfgs := make([]sim.Config, runs)
	props := core.DistinctProposals(n)
	for i := range cfgs {
		cfgs[i] = core.ConfigES(props, core.RunOpts{
			Policy: &env.ES{GST: 8, Pre: env.MS{Seed: int64(i), MaxDelay: 3}},
		})
	}
	return cfgs
}

// BenchmarkBatchES measures a 64-run ES trial grid through RunBatch,
// sequentially and at full parallelism; the gap is the multicore speedup
// of the trial plane (identical bytes out either way).
func BenchmarkBatchES(b *testing.B) {
	for _, par := range []int{1, 0} {
		name := fmt.Sprintf("parallel=%d", par)
		if par == 0 {
			name = "parallel=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := sim.RunBatch(context.Background(), esBatchConfigs(64, 8), sim.BatchOpts{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if !res.AllCorrectDecided() {
						b.Fatal("undecided")
					}
				}
			}
		})
	}
}
