package core

import (
	"fmt"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
)

// hiddenMarker wraps an automaton and exposes only giraf.Automaton, so the
// process keeps every late payload and never recycles a computed round.
type hiddenMarker struct{ giraf.Automaton }

// hideMarkers wraps every automaton of cfg in hiddenMarker.
func hideMarkers(cfg sim.Config) sim.Config {
	aut := cfg.Automaton
	cfg.Automaton = func(i int) giraf.Automaton { return hiddenMarker{aut(i)} }
	return cfg
}

// TestRoundSkipsInvisible is the property test for the ways a process
// skips round work behind the giraf.RoundLocal marker: dropping envelopes
// for rounds already computed, adopting a shared round, and taking the
// aggregate a shared round carries before the round is read. Over the
// environments, faults, sizes and seeds below, a run must match — statuses,
// rounds and every Metrics field but MergesSkipped — the same run with the
// marker hidden.
func TestRoundSkipsInvisible(t *testing.T) {
	policies := []struct {
		name string
		make func(seed int64, n int) env.Policy
	}{
		{"MS", func(seed int64, n int) env.Policy { return &env.MS{Seed: seed, MaxDelay: 3} }},
		{"ES", func(seed int64, n int) env.Policy { return &env.ES{GST: 5, Pre: env.MS{Seed: seed}} }},
		{"ESS", func(seed int64, n int) env.Policy {
			return &env.ESS{GST: 5, StableSource: n - 1, Pre: env.MS{Seed: seed, MaxDelay: 2}}
		}},
		{"Async", func(seed int64, n int) env.Policy { return &env.Async{Seed: seed} }},
	}
	faults := []struct {
		name     string
		scenario func(seed int64) *env.Scenario
	}{
		{"clean", func(int64) *env.Scenario { return nil }},
		{"lossy-dup", func(seed int64) *env.Scenario { return &env.Scenario{Seed: seed, LossPct: 10, DupPct: 30} }},
	}
	seeds := []int64{1, 2, 3}
	sizes := []int{4, 16, 64}
	if testing.Short() {
		seeds, sizes = seeds[:1], sizes[:2]
	}
	for _, n := range sizes {
		props := SplitProposals(n, 3)
		algs := []struct {
			name   string
			config func(RunOpts) sim.Config
		}{
			{"ES", func(o RunOpts) sim.Config { return ConfigES(props, o) }},
			{"ESS", func(o RunOpts) sim.Config { return ConfigESS(props, o) }},
			{"Omega", func(o RunOpts) sim.Config { return ConfigOmega(props, EventualOracle(n-1, 5), o) }},
		}
		for _, alg := range algs {
			for _, pol := range policies {
				for _, f := range faults {
					t.Run(fmt.Sprintf("%s/%s/%s/n=%d", alg.name, pol.name, f.name, n), func(t *testing.T) {
						for _, seed := range seeds {
							run := func(hide bool) *sim.Result {
								cfg := alg.config(RunOpts{
									Policy:    pol.make(seed, n),
									Scenario:  f.scenario(seed),
									MaxRounds: 30,
								})
								if hide {
									cfg = hideMarkers(cfg)
								}
								res, err := sim.Run(cfg)
								if err != nil {
									t.Fatal(err)
								}
								return res
							}
							base, got := run(true), run(false)
							// MergesSkipped counts the deliveries shared rounds
							// absorbed, and a process with its marker hidden never
							// takes a shared round.
							gotMetrics := got.Metrics
							gotMetrics.MergesSkipped = base.Metrics.MergesSkipped
							if gotMetrics != base.Metrics || got.Rounds != base.Rounds {
								t.Fatalf("seed %d: rounds %d metrics %+v, with the marker hidden rounds %d metrics %+v",
									seed, got.Rounds, got.Metrics, base.Rounds, base.Metrics)
							}
							for i := range base.Statuses {
								if got.Statuses[i] != base.Statuses[i] {
									t.Fatalf("seed %d: process %d status %+v, with the marker hidden %+v",
										seed, i, got.Statuses[i], base.Statuses[i])
								}
							}
						}
					})
				}
			}
		}
	}
}
