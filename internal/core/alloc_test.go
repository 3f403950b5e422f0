package core

import (
	"testing"

	"anonconsensus/internal/env"
)

// TestSimStepAllocBudget pins the allocation cost of one full simulated
// consensus run (every global step: compute, clone, broadcast, deliver,
// dedup) so the canonical-form refactor can't silently regress. The
// ceiling carries ~35% headroom over the measured value at the time of
// writing (~370 allocs for this config, down from ~660 before the
// flat-state engine and ~2400 pre-canonical-form); alloc counts for a
// fixed deterministic run are stable across machines.
func TestSimStepAllocBudget(t *testing.T) {
	props := DistinctProposals(4)
	run := func() {
		res, err := RunES(props, RunOpts{Policy: env.Synchronous{}})
		if err != nil || !res.AllCorrectDecided() {
			t.Fatalf("run failed: %v", err)
		}
	}
	run() // settle any process-global lazy state (intern shards etc.)
	const ceiling = 500
	if n := testing.AllocsPerRun(10, run); n > ceiling {
		t.Errorf("full ES n=4 synchronous run: %v allocs, budget %d", n, ceiling)
	}
}
