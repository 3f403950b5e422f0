package core

import (
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// These tests document that the proof-derived pseudo-code nesting is
// load-bearing (DESIGN.md §3 note 3): the flat literal reading of the HAL
// preprint demonstrably breaks Agreement (stale WRITTENOLD) and Termination
// (the all-⊥ deadlock).

func runLiteralESS(t *testing.T, props []values.Value, pol env.Policy, maxRounds int) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		N:         len(props),
		Automaton: func(i int) giraf.Automaton { return NewESSLiteral(props[i]) },
		Policy:    pol,
		MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestESSLiteralViolatesAgreement(t *testing.T) {
	// Pinned MS schedule (found by seed search) on which the literal
	// variant's WRITTENOLD^k = WRITTEN^(k−2) lets one process decide on
	// two-round-old evidence while the rest move on to another value.
	props := SplitProposals(5, 2)
	res := runLiteralESS(t, props, &env.MS{Seed: 93, MaxDelay: 3, ExtraTimelyPct: 93 % 40}, 80)
	if res.Decisions().Len() <= 1 {
		t.Skip("pinned schedule no longer violates agreement (engine change?); re-pin a seed")
	}
	// The corrected automaton must handle the same schedule safely.
	fixed, err := RunESS(props, RunOpts{
		Policy:    &env.MS{Seed: 93, MaxDelay: 3, ExtraTimelyPct: 93 % 40},
		MaxRounds: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSafety(t, fixed, props)
}

func TestESSLiteralDeadlocksAllBot(t *testing.T) {
	// Stable source from round 1 with all other links slow: the source
	// decides alone and halts; under the literal nesting the survivors are
	// stuck proposing ⊥ forever because the leader-proposal lines never run
	// when WRITTEN \ {⊥} = ∅.
	props := DistinctProposals(5)
	pol := &env.ESS{GST: 1, StableSource: 4, Pre: env.MS{Seed: 4}}
	res := runLiteralESS(t, props, pol, 300)
	if res.AllCorrectDecided() {
		t.Skip("pinned schedule no longer deadlocks (engine change?); re-pin")
	}
	// The corrected automaton terminates on the identical schedule.
	fixed, err := RunESS(props, RunOpts{
		Policy:    &env.ESS{GST: 1, StableSource: 4, Pre: env.MS{Seed: 4}},
		MaxRounds: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.AllCorrectDecided() {
		t.Error("corrected ESS fails to terminate on the pinned schedule")
	}
	requireSafety(t, fixed, props)
}

func TestESLiteralStaleWrittenOld(t *testing.T) {
	// The ES literal variant decides against WRITTEN^(k−2); search a modest
	// seed space for an MS schedule where that breaks agreement, then check
	// the corrected automaton on the same schedule. The search is
	// deterministic, so this test is stable.
	for seed := int64(0); seed < 400; seed++ {
		props := SplitProposals(5, 2)
		pol := &env.MS{Seed: seed, MaxDelay: 3, ExtraTimelyPct: int(seed % 40)}
		res, err := sim.Run(sim.Config{
			N:         len(props),
			Automaton: func(i int) giraf.Automaton { return NewESLiteral(props[i]) },
			Policy:    pol,
			MaxRounds: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decisions().Len() > 1 {
			fixed, err := RunES(props, RunOpts{
				Policy:    &env.MS{Seed: seed, MaxDelay: 3, ExtraTimelyPct: int(seed % 40)},
				MaxRounds: 80,
			})
			if err != nil {
				t.Fatal(err)
			}
			if vs := fixed.Check(ProposalSet(props), nil, false); len(vs) > 0 {
				t.Errorf("corrected ES on seed %d: %v", seed, vs)
			}
			return
		}
	}
	// Not finding a violation is not a failure of the corrected algorithm —
	// ES's stricter decide guard (PROPOSED must equal {VAL} exactly) makes
	// the literal variant much harder to trip than ESS's.
	t.Log("no ES-literal agreement violation within the searched seed space")
}
