package core

import (
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// TestSimStepAllocBudget pins the allocation cost of one full simulated
// consensus run (every global step: compute, clone, broadcast, deliver,
// dedup) so the canonical-form refactor can't silently regress. The
// ceiling carries ~35% headroom over the measured value at the time of
// writing (172 allocs for this config, down from 234 before value sets
// became immutable sorted slices, ~660 before the flat-state engine and
// ~2400 pre-canonical-form); alloc counts for a fixed deterministic run
// are stable across machines.
func TestSimStepAllocBudget(t *testing.T) {
	props := DistinctProposals(4)
	run := func() {
		res, err := RunES(props, RunOpts{Policy: env.Synchronous{}})
		if err != nil || !res.AllCorrectDecided() {
			t.Fatalf("run failed: %v", err)
		}
	}
	run() // settle any process-global lazy state (intern shards etc.)
	const ceiling = 232
	if n := testing.AllocsPerRun(10, run); n > ceiling {
		t.Errorf("full ES n=4 synchronous run: %v allocs, budget %d", n, ceiling)
	}
}

// TestBigNRunAllocBudget pins the allocation cost of the big-n path: one
// whole ES n=64 run, stable from round 2, on an engine re-armed per run as
// the sim transport's pool does. Late round-1 envelopes are dropped, round
// storage is recycled as it is computed, and each timely round's
// aggregates are computed once, by its first adopter. The ceiling carries
// the ~35% headroom of the pin above over the 1618 allocs measured when it
// was set (1615 once the aggregates moved from a run-shared memo onto the
// shared round; 2898 before value sets became immutable sorted slices,
// 3649 before the stale-round drop and the memo).
func TestBigNRunAllocBudget(t *testing.T) {
	props := DistinctProposals(64)
	cfg := func() sim.Config {
		return ConfigES(props, RunOpts{Policy: &env.ES{GST: 2, Pre: env.MS{Seed: 1}}})
	}
	eng, err := sim.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := eng.Reset(cfg()); err != nil {
			t.Fatal(err)
		}
		if res := eng.Run(); !res.AllCorrectDecided() {
			t.Fatal("ES n=64 GST-2 run did not decide")
		}
	}
	// Warm the pooled storage: recycled round inboxes swap rounds from run
	// to run and take a few runs until all of them have grown.
	for warm := 0; warm < 4; warm++ {
		run()
	}
	const ceiling = 2180
	if n := testing.AllocsPerRun(10, run); n > ceiling {
		t.Errorf("ES n=64 GST-2 run on a reused engine: %v allocs, budget %d", n, ceiling)
	}
}

// TestESSRunAllocBudget pins Algorithm 3 at Algorithm 2's cost: one whole
// synchronous ESS n=16 run may allocate at most three times what the same
// ES run does. Histories are hash-consed chains, counter tables are keyed
// by fingerprint with a cached canonical form, payloads share the state
// they carry instead of cloning it, and each timely round merges and
// bumps once, in the aggregate its shared round carries. The ceiling
// carries the ~35% headroom of the pins above over the 1068 allocs
// measured when it was set, against ES's 542 (1448 before value sets
// became immutable sorted slices; 11,449 before the tables above, against
// ES's 924).
func TestESSRunAllocBudget(t *testing.T) {
	props := DistinctProposals(16)
	allocs := func(run func([]values.Value, RunOpts) (*sim.Result, error)) float64 {
		once := func() {
			res, err := run(props, RunOpts{Policy: env.Synchronous{}})
			if err != nil || !res.AllCorrectDecided() {
				t.Fatalf("run failed: %v", err)
			}
		}
		once()
		return testing.AllocsPerRun(5, once)
	}
	ess, es := allocs(RunESS), allocs(RunES)
	const ceiling = 1440
	if ess > ceiling {
		t.Errorf("synchronous ESS n=16 run: %v allocs, budget %d", ess, ceiling)
	}
	if ess > 3*es {
		t.Errorf("synchronous ESS n=16 run: %v allocs, more than 3× ES's %v", ess, es)
	}
}
