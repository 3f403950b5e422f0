package sim

import (
	"slices"
	"strings"
	"testing"

	"anonconsensus/internal/env"
)

// runTraced runs the flood automaton (never deciding) under pol and returns
// the trace.
func runTraced(t *testing.T, n, rounds int, pol env.Policy, crashes map[int]int) *Trace {
	t.Helper()
	res, err := Run(Config{
		N:           n,
		Automaton:   floodFactory(0),
		Policy:      pol,
		Scenario:    &env.Scenario{Crashes: crashes},
		MaxRounds:   rounds,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	return res.Trace
}

func TestSynchronousSatisfiesAllEnvironments(t *testing.T) {
	tr := runTraced(t, 4, 12, env.Synchronous{}, nil)
	if err := tr.CheckMS(); err != nil {
		t.Errorf("CheckMS: %v", err)
	}
	if err := tr.CheckES(1); err != nil {
		t.Errorf("CheckES: %v", err)
	}
	if err := tr.CheckESS(1, 0); err != nil {
		t.Errorf("CheckESS: %v", err)
	}
}

func TestMSPolicySatisfiesMS(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		tr := runTraced(t, 5, 30, &env.MS{Seed: seed, MaxDelay: 4}, nil)
		if err := tr.CheckMS(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestMSPolicyWithShuffleSatisfiesMS(t *testing.T) {
	tr := runTraced(t, 6, 30, &env.MS{Seed: 7, Shuffle: true}, nil)
	if err := tr.CheckMS(); err != nil {
		t.Error(err)
	}
}

func TestMSPolicySurvivesCrashes(t *testing.T) {
	tr := runTraced(t, 5, 30, &env.MS{Seed: 5}, map[int]int{0: 4, 1: 9})
	if err := tr.CheckMS(); err != nil {
		t.Error(err)
	}
}

func TestMSPolicyIsNotES(t *testing.T) {
	// With non-source delays always ≥ 1 and several processes, pre-GST MS
	// chaos must violate the all-timely requirement of ES.
	tr := runTraced(t, 4, 30, &env.MS{Seed: 3}, nil)
	if err := tr.CheckES(1); err == nil {
		t.Error("MS run unexpectedly satisfies ES from round 1")
	}
}

func TestESPolicySatisfiesES(t *testing.T) {
	gst := 10
	tr := runTraced(t, 5, 30, &env.ES{GST: gst, Pre: env.MS{Seed: 11}}, nil)
	if err := tr.CheckES(gst); err != nil {
		t.Errorf("CheckES: %v", err)
	}
	if err := tr.CheckMS(); err != nil {
		t.Errorf("CheckMS: %v", err)
	}
}

func TestESSPolicySatisfiesESS(t *testing.T) {
	gst, src := 8, 2
	tr := runTraced(t, 5, 40, &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: 13}}, nil)
	if err := tr.CheckESS(gst, src); err != nil {
		t.Errorf("CheckESS: %v", err)
	}
}

func TestESSIsNotESWhenLinksStaySlow(t *testing.T) {
	tr := runTraced(t, 4, 40, &env.ESS{GST: 5, StableSource: 1, Pre: env.MS{Seed: 17}}, nil)
	if err := tr.CheckES(5); err == nil {
		t.Error("ESS run with slow non-source links unexpectedly satisfies ES")
	}
}

func TestAsyncWithMinDelayViolatesMS(t *testing.T) {
	tr := runTraced(t, 4, 20, &env.Async{Seed: 23, MinDelay: 1, MaxDelay: 3}, nil)
	err := tr.CheckMS()
	if err == nil {
		t.Fatal("async run with all-late deliveries must violate MS")
	}
	if !strings.Contains(err.Error(), "MS violated") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAlternatingMSSatisfiesMS(t *testing.T) {
	tr := runTraced(t, 4, 40, &env.AlternatingMS{}, nil)
	if err := tr.CheckMS(); err != nil {
		t.Error(err)
	}
	// ...but not ES: the non-source half is always late.
	if err := tr.CheckES(1); err == nil {
		t.Error("alternating schedule unexpectedly satisfies ES")
	}
	// ...and not ESS for either alternating source.
	if tr.CheckESS(1, 0) == nil && tr.CheckESS(1, 3) == nil {
		t.Error("alternating schedule unexpectedly satisfies ESS")
	}
}

func TestScriptedViolationDetected(t *testing.T) {
	// Round 2: everybody's envelope late to somebody → no source → MS broken.
	pol := &env.Scripted{Default: 0, Delays: map[int]map[int]map[int]int{
		2: {
			0: {1: 1},
			1: {2: 1},
			2: {0: 1},
		},
	}}
	tr := runTraced(t, 3, 6, pol, nil)
	err := tr.CheckMS()
	if err == nil {
		t.Fatal("hand-built violation not detected")
	}
	if !strings.Contains(err.Error(), "round 2") {
		t.Errorf("violation should name round 2: %v", err)
	}
}

func TestClaimedSourceIsTimely(t *testing.T) {
	tr := runTraced(t, 5, 25, &env.MS{Seed: 31}, nil)
	for r := 1; r <= 20; r++ {
		src, ok := tr.ClaimedSource(r)
		if !ok {
			continue
		}
		receivers := tr.Computed(r)
		if len(receivers) == 0 {
			continue
		}
		if !slices.Contains(tr.TimelySources(r, receivers), src) {
			t.Errorf("round %d: claimed source %d not actually timely", r, src)
		}
	}
}

func TestTimelySourcesSenderCountsItself(t *testing.T) {
	// n=1: the only process is trivially a source every round.
	tr := runTraced(t, 1, 5, &env.MS{Seed: 1}, nil)
	if err := tr.CheckMS(); err != nil {
		t.Errorf("single-process run must satisfy MS: %v", err)
	}
}

func TestCheckIrrevocabilityCleanRun(t *testing.T) {
	// A real consensus run: traced decisions must reconcile with the final
	// statuses and no process may broadcast after halting.
	res, err := Run(Config{
		N:           3,
		Automaton:   floodFactory(3),
		Policy:      env.Synchronous{},
		MaxRounds:   10,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.CheckIrrevocability(res.Statuses); err != nil {
		t.Errorf("clean run flagged: %v", err)
	}
	if rec, ok := res.Trace.Decision(0); !ok || rec.Step != res.Statuses[0].DecidedAt || rec.Value != res.Statuses[0].Decision {
		t.Errorf("traced decision %+v disagrees with status %+v", rec, res.Statuses[0])
	}
}

func TestCheckIrrevocabilityUndecidedRun(t *testing.T) {
	tr := runTraced(t, 3, 8, env.Synchronous{}, nil)
	statuses := make([]ProcStatus, 3)
	if err := tr.CheckIrrevocability(statuses); err != nil {
		t.Errorf("undecided run flagged: %v", err)
	}
}

func TestCheckIrrevocabilityDetectsBreaches(t *testing.T) {
	// Fabricate traces that break the halt contract in each detectable way.
	decided := []ProcStatus{{Decided: true, Decision: "v", DecidedAt: 2}}
	undecided := []ProcStatus{{}}

	fresh := func() *Trace { return newTrace(1) }

	t.Run("missing trace event", func(t *testing.T) {
		if err := fresh().CheckIrrevocability(decided); err == nil {
			t.Error("decided status without traced decision passed")
		}
	})
	t.Run("finished undecided", func(t *testing.T) {
		tr := fresh()
		tr.recordDecision(0, 2, "v")
		if err := tr.CheckIrrevocability(undecided); err == nil {
			t.Error("traced decision with undecided status passed")
		}
	})
	t.Run("value changed", func(t *testing.T) {
		tr := fresh()
		tr.recordDecision(0, 2, "other")
		if err := tr.CheckIrrevocability(decided); err == nil {
			t.Error("decision value change passed")
		}
	})
	t.Run("step changed", func(t *testing.T) {
		tr := fresh()
		tr.recordDecision(0, 3, "v")
		if err := tr.CheckIrrevocability(decided); err == nil {
			t.Error("decision step change passed")
		}
	})
	t.Run("broadcast after halt", func(t *testing.T) {
		tr := fresh()
		tr.recordDecision(0, 2, "v")
		tr.recordBroadcast(4, 0)
		if err := tr.CheckIrrevocability(decided); err == nil {
			t.Error("post-halt broadcast passed")
		}
	})
	t.Run("all consistent", func(t *testing.T) {
		tr := fresh()
		tr.recordDecision(0, 2, "v")
		tr.recordBroadcast(2, 0)
		if err := tr.CheckIrrevocability(decided); err != nil {
			t.Errorf("consistent history flagged: %v", err)
		}
	})
}
