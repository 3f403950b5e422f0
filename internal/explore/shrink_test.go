package explore

import (
	"errors"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/property"
	"anonconsensus/internal/values"
)

func TestShrinkStripsIrrelevantStructure(t *testing.T) {
	// Hand the shrinker a deliberately bloated trace around the stubborn
	// agreement bug (decides its own value at round 2, regardless of the
	// environment): every delay, every scheduled round beyond the first and
	// the whole scenario are irrelevant and must go.
	props := []values.Value{values.Num(1), values.Num(2)}
	cfg := &Config{
		Proposals: props,
		Algorithm: AlgES,
		Automaton: func(i int) giraf.Automaton { return stubbornAutomaton{v: props[i]} },
	}
	// The trace must exhibit the violation under the checker's gates
	// (agreement is only asserted inside the MS model on link-fault-free
	// runs), so every sampled round keeps a live source and the scenario
	// carries only crash/duplication faults.
	tr := Trace{
		Algorithm:  AlgES,
		Proposals:  props,
		Tail:       10,
		SyncSteady: true,
		Schedule: []matrix{
			{{0, 0}, {2, 0}},
			{{0, 1}, {0, 0}},
			{{0, 0}, {9, 0}},
		},
		Scenario: &env.Scenario{
			Seed:    3,
			DupPct:  20,
			Crashes: map[int]int{1: 9},
		},
	}
	shrunk, violation, probes := shrinkTrace(cfg, tr, "agreement", "agreement violated: seed")
	if probes == 0 {
		t.Fatal("shrinker ran no probes")
	}
	if len(shrunk.Schedule) != 1 {
		t.Errorf("schedule has %d rounds after shrinking, want 1", len(shrunk.Schedule))
	}
	for i, row := range shrunk.Schedule[0] {
		for j, d := range row {
			if d != 0 {
				t.Errorf("entry [%d][%d] = %d survived shrinking", i, j, d)
			}
		}
	}
	if !shrunk.Scenario.Empty() {
		t.Errorf("scenario survived shrinking: %s", shrunk.Scenario.Encode())
	}
	if violationKind(violation) != "agreement" {
		t.Errorf("final violation %q is not an agreement breach", violation)
	}

	// Local minimality: the reported violation must reproduce on replay.
	rep, err := Run(Config{Mode: ModeReplay, Trace: &shrunk, Automaton: cfg.Automaton})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := firstOfKind(rep.Violations, "agreement"); !ok || got != violation {
		t.Errorf("replay violation %q, want %q", got, violation)
	}
}

// violationKind and firstOfKind read a report's violation strings back
// into props kinds.
func violationKind(v string) property.Kind { return property.KindOf(v) }

func firstOfKind(vs []string, kind property.Kind) (string, bool) {
	for _, v := range vs {
		if property.KindOf(v) == kind {
			return v, true
		}
	}
	return "", false
}

func TestConfigRejectsVacuousScenario(t *testing.T) {
	// A scenario whose crash schedule stops every process makes every run
	// vacuous; validation must reject it with the typed env.ErrAllCrashed.
	cfg := Config{
		Proposals: []values.Value{values.Num(1), values.Num(2)},
		Algorithm: AlgES,
		Horizon:   2,
		Scenario:  &env.Scenario{Crashes: map[int]int{0: 1, 1: 1}},
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("all-crash scenario accepted")
	}
	if !errors.Is(err, env.ErrAllCrashed) {
		t.Errorf("error %v does not wrap env.ErrAllCrashed", err)
	}

	// The same schedule in random mode is rejected identically.
	cfg.Mode = ModeRandom
	cfg.Horizon = 0
	if _, err := Run(cfg); !errors.Is(err, env.ErrAllCrashed) {
		t.Errorf("random mode: error %v does not wrap env.ErrAllCrashed", err)
	}

	// Leaving one process alive is legal (f ≤ n−1).
	cfg.Mode = ModeExhaustive
	cfg.Horizon = 2
	cfg.Scenario = &env.Scenario{Crashes: map[int]int{1: 1}}
	if _, err := Run(cfg); err != nil {
		t.Errorf("n−1 crashes rejected: %v", err)
	}
}

func TestExhaustiveWithScenarioOverlay(t *testing.T) {
	// A duplication-heavy overlay must not shake Agreement/Validity on the
	// exhaustive space (set semantics absorb duplicates), and the report
	// must count the faulted runs.
	rep, err := Run(Config{
		Proposals: []values.Value{values.Num(1), values.Num(2)},
		Algorithm: AlgES,
		Horizon:   3,
		Scenario:  &env.Scenario{Seed: 11, DupPct: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified() {
		t.Fatalf("duplication broke the exhaustive space: %v", rep.Violations[0])
	}
	if rep.Faulted != rep.Runs {
		t.Errorf("faulted = %d, want every run (%d)", rep.Faulted, rep.Runs)
	}
}
