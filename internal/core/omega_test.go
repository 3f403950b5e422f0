package core

import (
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

func TestOmegaConsensusWithAccurateOracle(t *testing.T) {
	// Ω stabilized from the start, leader is the stable source.
	for _, n := range []int{2, 4, 7} {
		props := DistinctProposals(n)
		res, err := RunOmega(props, EventualOracle(0, 0), RunOpts{
			Policy:    &env.ESS{GST: 1, StableSource: 0, Pre: env.MS{Seed: int64(n)}},
			MaxRounds: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, props)
	}
}

func TestOmegaConsensusLateOracle(t *testing.T) {
	// Everybody thinks it is the leader until round 12; then Ω converges to
	// process 2 which is also the eventual source.
	props := DistinctProposals(5)
	res, err := RunOmega(props, EventualOracle(2, 12), RunOpts{
		Policy:    &env.ESS{GST: 12, StableSource: 2, Pre: env.MS{Seed: 5}},
		MaxRounds: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
}

func TestOmegaConsensusSafetyWithWrongOracle(t *testing.T) {
	// A never-converging oracle (everyone always a leader) may cost
	// liveness but must never cost safety.
	always := func(i int) LeaderOracle { return func(int) bool { return true } }
	for seed := int64(0); seed < 60; seed++ {
		props := SplitProposals(4, 2)
		res, err := RunOmega(props, always, RunOpts{
			Policy:    &env.MS{Seed: seed, MaxDelay: 3},
			MaxRounds: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSafety(t, res, props)
	}
}

func TestOmegaConsensusSynchronous(t *testing.T) {
	props := DistinctProposals(4)
	res, err := RunOmega(props, EventualOracle(1, 0), RunOpts{Policy: env.Synchronous{}})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, props)
}

func TestOmegaPayloadsAreLean(t *testing.T) {
	// The whole point of the baseline: its payloads carry no history or
	// counter baggage. Compare max envelope sizes on the same workload.
	props := DistinctProposals(6)
	pol := func() env.Policy {
		return &env.ESS{GST: 10, StableSource: 0, Pre: env.MS{Seed: 77}}
	}
	omega, err := RunOmega(props, EventualOracle(0, 10), RunOpts{Policy: pol(), MaxRounds: 300})
	if err != nil {
		t.Fatal(err)
	}
	ess, err := RunESS(props, RunOpts{Policy: pol(), MaxRounds: 300})
	if err != nil {
		t.Fatal(err)
	}
	if omega.Metrics.MaxEnvelopeBytes >= ess.Metrics.MaxEnvelopeBytes {
		t.Errorf("Ω payloads (%d B max) should be smaller than ESS payloads (%d B max)",
			omega.Metrics.MaxEnvelopeBytes, ess.Metrics.MaxEnvelopeBytes)
	}
}

func TestNewOmegaConsensusValidation(t *testing.T) {
	t.Run("invalid value", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("must panic on Bot")
			}
		}()
		NewOmegaConsensus(values.Bot, func(int) bool { return true })
	})
	t.Run("nil oracle", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("must panic on nil oracle")
			}
		}()
		NewOmegaConsensus(values.Num(1), nil)
	})
}
