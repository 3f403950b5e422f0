package anonnet

import (
	"context"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/property"
)

// The scenario plane on the real-time backend: the same env.Scenario the
// lockstep simulator consumes, realized at the broadcast fan-out.

func TestLiveScenarioDuplicationHarmless(t *testing.T) {
	// 100% duplication: every delivery queued twice; set-semantics dedup
	// keeps the algorithm oblivious and consensus intact.
	props := core.DistinctProposals(4)
	res, err := Run(context.Background(), Config{
		N:         4,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   10 * time.Second,
		Scenario:  &env.Scenario{Seed: 1, DupPct: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireLiveConsensus(t, res, props)
	if res.Duplicated == 0 {
		t.Error("Duplicated = 0 at DupPct 100")
	}
}

func TestLiveScenarioTotalLossIsolatesProcesses(t *testing.T) {
	// 100% loss: no foreign payload ever arrives, so each process is
	// effectively alone and decides its own value — divergent decisions
	// and a nonzero drop count prove the loss plane really bit.
	props := core.DistinctProposals(2)
	res, err := Run(context.Background(), Config{
		N:         2,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   10 * time.Second,
		Scenario:  &env.Scenario{Seed: 2, LossPct: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatalf("isolated processes must still decide (their own value): %+v", res.Procs)
	}
	if d := property.Decisions(res.Outcomes()); d.Len() != 2 {
		t.Errorf("decisions = %v, want both proposals (split ensemble)", d)
	}
	if res.Dropped == 0 {
		t.Error("Dropped = 0 at LossPct 100")
	}
}

func TestLiveScenarioPartitionSplitsBrain(t *testing.T) {
	// A never-healing partition separates {0,1} from {2,3}; each block is
	// an anonymous network of its own and decides its block value.
	props := core.SplitProposals(4, 1)
	props[2], props[3] = "zz", "zz" // block values: {0,1}→"0", {2,3}→"zz"
	res, err := Run(context.Background(), Config{
		N:         4,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   10 * time.Second,
		Scenario:  &env.Scenario{Partitions: []env.Partition{{From: 1, Until: 0, Cut: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatalf("both blocks must decide internally: %+v", res.Procs)
	}
	if d := property.Decisions(res.Outcomes()); d.Len() != 2 {
		t.Errorf("decisions = %v, want the two block values (split-brain)", d)
	}
}

func TestLiveScenarioCrashSchedule(t *testing.T) {
	// A crash at round 1: the process stops before it ever broadcasts more
	// than its initial state.
	props := core.DistinctProposals(3)
	res, err := Run(context.Background(), Config{
		N:         3,
		Automaton: esFactory(props),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   10 * time.Second,
		Scenario:  &env.Scenario{Crashes: map[int]int{2: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Procs[2].Crashed {
		t.Errorf("proc 2 must crash via the scenario schedule: %+v", res.Procs[2])
	}
	requireLiveConsensus(t, res, props)
}

func TestLiveScenarioValidation(t *testing.T) {
	cfg := Config{
		N:         2,
		Automaton: esFactory(core.DistinctProposals(2)),
		Interval:  liveInterval,
		Latency:   env.Sync{Interval: liveInterval},
		Timeout:   time.Second,
		Scenario:  &env.Scenario{Partitions: []env.Partition{{From: 1, Until: 0, Cut: 2}}}, // cut ≥ n
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("invalid scenario accepted")
	}
	cfg.Scenario = &env.Scenario{Crashes: map[int]int{0: 1, 1: 1}}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("all-crash scenario accepted")
	}
}
