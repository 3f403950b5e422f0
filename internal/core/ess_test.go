package core

import (
	"fmt"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

func TestESSSynchronousFromStart(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		props := DistinctProposals(n)
		res, err := RunESS(props, RunOpts{Policy: env.Synchronous{}})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, props)
		if last := res.LastDecisionRound(); last > 6 {
			t.Errorf("n=%d: decision at round %d, want ≤ 6 under full synchrony", n, last)
		}
	}
}

func TestESSIdenticalProposals(t *testing.T) {
	props := []values.Value{values.Num(4), values.Num(4), values.Num(4), values.Num(4)}
	res, err := RunESS(props, RunOpts{Policy: env.Synchronous{}})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
	if d, _ := res.Decisions().Max(); d != values.Num(4) {
		t.Errorf("decided %v, want 4", d)
	}
}

func TestESSStableSourceOnly(t *testing.T) {
	// The headline ESS scenario: after GST exactly one process is timely;
	// every other link stays slow forever. Consensus must still terminate.
	for _, tc := range []struct {
		n, gst, src int
		seed        int64
	}{
		{3, 6, 0, 1},
		{5, 10, 2, 2},
		{8, 12, 7, 3},
		{5, 1, 4, 4}, // stable source from the start
	} {
		props := DistinctProposals(tc.n)
		res, err := RunESS(props, RunOpts{
			Policy:    &env.ESS{GST: tc.gst, StableSource: tc.src, Pre: env.MS{Seed: tc.seed}},
			MaxRounds: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, props)
	}
}

func TestESSWithPartialPostTimeliness(t *testing.T) {
	// Some non-source links are timely after GST; still ESS, still decides.
	props := DistinctProposals(6)
	res, err := RunESS(props, RunOpts{
		Policy: &env.ESS{
			GST: 8, StableSource: 3,
			Pre:           env.MS{Seed: 9},
			PostTimelyPct: 40,
		},
		MaxRounds: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
}

func TestESSWithCrashes(t *testing.T) {
	// Crashing processes (not the stable source) must not block decisions.
	props := DistinctProposals(6)
	res, err := RunESS(props, RunOpts{
		Policy:    &env.ESS{GST: 10, StableSource: 4, Pre: env.MS{Seed: 11}},
		Scenario:  &env.Scenario{Crashes: map[int]int{0: 3, 1: 7, 2: 14}},
		MaxRounds: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
}

func TestESSSourceCrashPreGST(t *testing.T) {
	// A process that was the source before GST crashes; the eventual stable
	// source takes over at GST.
	props := DistinctProposals(5)
	res, err := RunESS(props, RunOpts{
		Policy:    &env.ESS{GST: 12, StableSource: 4, Pre: env.MS{Seed: 13}},
		Scenario:  &env.Scenario{Crashes: map[int]int{0: 6, 1: 9}},
		MaxRounds: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
}

func TestESSSafetyUnderRandomMS(t *testing.T) {
	// Agreement/Validity on arbitrary moving-source schedules (no stable
	// source, so termination is not guaranteed — safety must hold anyway).
	for seed := int64(0); seed < 150; seed++ {
		props := SplitProposals(5, 2)
		res, err := RunESS(props, RunOpts{
			Policy:    &env.MS{Seed: seed, MaxDelay: 3, Shuffle: seed%3 == 0, ExtraTimelyPct: int(seed % 40)},
			MaxRounds: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSafety(t, res, props)
	}
}

func TestESSSafetyUnderRandomESSSchedules(t *testing.T) {
	// Random GST/source/crash combinations: full consensus must hold.
	for seed := int64(0); seed < 60; seed++ {
		n := 4 + int(seed%4)
		src := int(seed) % n
		props := SplitProposals(n, 3)
		crashes := map[int]int{}
		if victim := int(seed+1) % n; victim != src {
			crashes[victim] = int(seed%9) + 1
		}
		res, err := RunESS(props, RunOpts{
			Policy:    &env.ESS{GST: int(seed%16) + 1, StableSource: src, Pre: env.MS{Seed: seed}},
			Scenario:  &env.Scenario{Crashes: crashes},
			MaxRounds: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, props)
	}
}

func TestESSLeaderSetConverges(t *testing.T) {
	// Lemma 6: eventually there is a leader and every leader is a
	// ⋄-proposer. In the single-stable-source schedule the only
	// ⋄-proposer is the source, so eventually the self-considered leader
	// set among running processes must contain the source and stay stable.
	n, gst, src := 5, 8, 2
	props := DistinctProposals(n)
	leadersPerRound := make(map[int][]int)
	res, err := RunESS(props, RunOpts{
		Policy:    &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: 21}},
		MaxRounds: 400,
		OnRound: func(r int, e *sim.Engine) {
			var leaders []int
			for i := 0; i < e.N(); i++ {
				p := e.Proc(i)
				if p.Halted() {
					continue
				}
				if a, ok := e.Automaton(i).(*ESS); ok && a.LeaderNow() {
					leaders = append(leaders, i)
				}
			}
			leadersPerRound[r] = leaders
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
	// In the last pre-decision rounds, the source must consider itself a
	// leader (it is the only ⋄-proposer).
	first := res.FirstDecisionRound()
	sawSourceLeading := false
	for r := gst; r < first; r++ {
		for _, pid := range leadersPerRound[r] {
			if pid == src {
				sawSourceLeading = true
			}
		}
	}
	if first > gst+2 && !sawSourceLeading {
		t.Error("stable source never considered itself a leader after GST")
	}
}

func TestESSUndecidedOnAlternatingMS(t *testing.T) {
	if testing.Short() {
		t.Skip("slow suite in -short mode")
	}
	// ESS liveness genuinely needs the stable source: the alternating
	// schedule (which satisfies MS but not ESS) can keep Algorithm 3
	// undecided, while safety holds throughout.
	props := []values.Value{values.Num(1), values.Num(2)}
	res, err := RunESS(props, RunOpts{
		Policy:      &env.AlternatingMS{},
		MaxRounds:   300,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.CheckMS(); err != nil {
		t.Fatalf("schedule must satisfy MS: %v", err)
	}
	requireSafety(t, res, props)
}

func TestESSHistoryGrowsOnePerRound(t *testing.T) {
	props := DistinctProposals(3)
	var bad []string
	_, err := RunESS(props, RunOpts{
		Policy:    env.Synchronous{},
		MaxRounds: 10,
		OnRound: func(r int, e *sim.Engine) {
			if a, ok := e.Automaton(0).(*ESS); ok && !e.Proc(0).Halted() {
				// After computing round r the history has 1 (initial) + r
				// appended values.
				if got := a.History().Len(); got != r+1 {
					bad = append(bad, fmt.Sprintf("round %d: history length %d, want %d", r, got, r+1))
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}

func TestNewESSRejectsInvalidValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewESS(Bot) must panic")
		}
	}()
	NewESS(values.Bot)
}

func TestESSPayloadKeyComponents(t *testing.T) {
	h := values.NewHistory(values.Num(1))
	base := ESSPayload{Proposed: values.NewSet(values.Num(1)), History: h, Counters: values.NewCounters()}
	// Differ in history only.
	other := base
	other.History = values.NewHistory(values.Num(2))
	if base.PayloadKey() == other.PayloadKey() {
		t.Error("payload key must cover the history")
	}
	// Differ in counters only.
	c := values.NewCounters()
	c.Bump(h)
	withC := base
	withC.Counters = c
	if base.PayloadKey() == withC.PayloadKey() {
		t.Error("payload key must cover the counters")
	}
	// Identical content → identical key.
	same := ESSPayload{Proposed: values.NewSet(values.Num(1)), History: values.NewHistory(values.Num(1)), Counters: values.NewCounters()}
	if base.PayloadKey() != same.PayloadKey() {
		t.Error("structurally equal payloads must collapse")
	}
}
