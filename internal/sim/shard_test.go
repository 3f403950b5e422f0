package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"anonconsensus/internal/env"
)

// TestDeliverShardingByteIdentical pins the intra-run parallelism
// guarantee the same way the batch plane's tables are pinned: one config
// run with DeliverWorkers 1, 4 and NumCPU must produce deeply identical
// Results — statuses, rounds and every metric counter. n is chosen large
// enough that a step's expanded delivery work clears shardMinWork, so the
// parallel settings genuinely take the sharded path.
func TestDeliverShardingByteIdentical(t *testing.T) {
	const n = 48
	configs := map[string]func(workers int) Config{
		"sync flood": func(w int) Config {
			return Config{
				N: n, Automaton: floodFactory(n), Policy: env.Synchronous{},
				MaxRounds: 4 * n, DeliverWorkers: w,
			}
		},
		"MS flood with crashes": func(w int) Config {
			return Config{
				N: n, Automaton: floodFactory(n - 2), Policy: &env.MS{Seed: 11, MaxDelay: 3},
				Scenario:  &env.Scenario{Crashes: map[int]int{3: 2, 17: 5}},
				MaxRounds: 4 * n, DeliverWorkers: w,
			}
		},
		"async lossy duplicating": func(w int) Config {
			return Config{
				N: n, Automaton: floodFactory(0), Policy: &env.Async{Seed: 7, MaxDelay: 2},
				Scenario:  &env.Scenario{Seed: 3, LossPct: 15, DupPct: 20},
				MaxRounds: 30, DeliverWorkers: w,
			}
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			base, err := Run(mk(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{4, runtime.NumCPU()} {
				got, err := Run(mk(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers=%d: result differs from sequential run\n seq: %+v\n got: %+v",
						workers, base, got)
				}
			}
		})
	}
}

// TestDeliverWorkersValidation pins rejection of negative worker counts.
func TestDeliverWorkersValidation(t *testing.T) {
	_, err := New(Config{
		N: 2, Automaton: floodFactory(2), Policy: env.Synchronous{},
		MaxRounds: 5, DeliverWorkers: -1,
	})
	if err == nil {
		t.Fatal("New must reject negative DeliverWorkers")
	}
}

// TestFanOutCollapsePreservesMetrics pins that the uniform-delay fan-out
// collapse (one ring entry per broadcast in scenario-free runs) is
// invisible in the metrics: per-receiver accounting must match a run in
// which collapsing is impossible because delays are non-uniform.
func TestFanOutCollapsePreservesMetrics(t *testing.T) {
	// Same flood workload under env.Synchronous (collapsible: all delays 0)
	// twice; the second run records a trace, which pins per-delivery
	// recording through the expansion path too.
	cfg := Config{N: 9, Automaton: floodFactory(9), Policy: env.Synchronous{}, MaxRounds: 40}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordTrace = true
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != traced.Metrics {
		t.Errorf("traced run metrics differ: %+v vs %+v", plain.Metrics, traced.Metrics)
	}
	// Every broadcast reaches all n-1 receivers under env.Synchronous with no
	// crashes, so the delivery count is exactly (n-1)·Broadcasts minus the
	// final round's envelopes (delivered at a step past the last executed
	// one, if the run ends by decision). At minimum the expansion must
	// deliver something every round.
	if plain.Metrics.Deliveries == 0 || plain.Metrics.Broadcasts == 0 {
		t.Fatalf("degenerate run: %+v", plain.Metrics)
	}
	// env.Synchronous is ES with GST 0: every delivery timely from round 1 on.
	if err := traced.Trace.CheckES(0); err != nil {
		t.Errorf("fan-out expansion broke the synchronous delivery pattern: %v", err)
	}
}

// TestShardWorkHeuristic exercises deliverWorkers' gating directly so the
// threshold arithmetic (fan-out entries count as n-1 units) stays honest.
func TestShardWorkHeuristic(t *testing.T) {
	e, err := New(Config{
		N: 64, Automaton: floodFactory(0), Policy: env.Synchronous{},
		MaxRounds: 5, DeliverWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tiny := make([]pendingDelivery, 3)
	for i := range tiny {
		tiny[i].receiver = i
	}
	if w := e.deliverWorkers(tiny); w != 1 {
		t.Errorf("3 per-receiver entries resolved to %d workers, want 1 (below shardMinWork)", w)
	}
	fan := []pendingDelivery{{receiver: fanOutAll, sender: 0}, {receiver: fanOutAll, sender: 1},
		{receiver: fanOutAll, sender: 2}, {receiver: fanOutAll, sender: 3}, {receiver: fanOutAll, sender: 4}}
	if w := e.deliverWorkers(fan); w != 4 {
		t.Errorf("5 fan-out entries at n=64 (%d units) resolved to %d workers, want 4", 5*63, w)
	}
}

func init() {
	// Guard against the heuristic silently changing under this test file:
	// the fan-out case above assumes 5·63 ≥ shardMinWork.
	if 5*63 < shardMinWork {
		panic(fmt.Sprintf("shard_test: fixture no longer clears shardMinWork=%d", shardMinWork))
	}
}
