package expt

import (
	"fmt"
	"io"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/property"
	"anonconsensus/internal/sim"
)

// runS1: the scenario sweep — how the ES algorithm degrades as composable
// faults are dialed in. Each grid point overlays one fault scenario (loss
// rate, duplication rate, partition shape, or the seeded random adversary)
// on an otherwise-favorable ES environment and reports, over the averaging
// seeds: the fraction of runs in which every correct process decided
// (termination under broken assumptions is best-effort, so this is a rate,
// not an invariant), the fraction in which all deciders agreed (loss and
// partitions break reliable broadcast, so Agreement genuinely can fail —
// split-brain blocks are the expected outcome of a long partition in an
// anonymous network), the mean last decision round among fully-decided
// runs, and the mean dropped/duplicated delivery counts.
//
// Like every table, the grid fans over the shared batch runner and is
// byte-identical at any parallelism.
func runS1(w io.Writer, quick bool) error {
	n := 8
	gst := 6
	if quick {
		n = 4
	}
	type point struct {
		name     string
		scenario func(seed int64) *env.Scenario
	}
	grid := []point{
		{"fault-free", func(seed int64) *env.Scenario { return nil }},
		{"loss 5%", func(seed int64) *env.Scenario { return &env.Scenario{Seed: seed, LossPct: 5} }},
		{"loss 20%", func(seed int64) *env.Scenario { return &env.Scenario{Seed: seed, LossPct: 20} }},
		{"loss 40%", func(seed int64) *env.Scenario { return &env.Scenario{Seed: seed, LossPct: 40} }},
		{"dup 30%", func(seed int64) *env.Scenario { return &env.Scenario{Seed: seed, DupPct: 30} }},
		{"loss 20% + dup 30%", func(seed int64) *env.Scenario {
			return &env.Scenario{Seed: seed, LossPct: 20, DupPct: 30}
		}},
		{"partition healed @2", func(seed int64) *env.Scenario {
			return &env.Scenario{Seed: seed, Partitions: []env.Partition{{From: 1, Until: 2, Cut: n / 2}}}
		}},
		{"partition never heals", func(seed int64) *env.Scenario {
			return &env.Scenario{Seed: seed, Partitions: []env.Partition{{From: 1, Until: 0, Cut: n / 2}}}
		}},
		{"random adversary", func(seed int64) *env.Scenario { return env.RandomAdversary(seed, n) }},
	}
	if quick {
		grid = []point{grid[0], grid[2], grid[4], grid[6], grid[7], grid[8]}
	}
	seeds := seedsFor(quick)

	var cfgs []sim.Config
	for _, pt := range grid {
		for _, seed := range seeds {
			cfgs = append(cfgs, core.ConfigES(core.DistinctProposals(n), core.RunOpts{
				Policy:   &env.ES{GST: gst, Pre: env.MS{Seed: seed}},
				Scenario: pt.scenario(seed),
			}))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	t := newTable("scenario", "n", "runs", "term rate", "agree rate", "last decision (mean)", "dropped (mean)", "dup'd (mean)")
	k := 0
	for _, pt := range grid {
		var decided, agreed int
		var lasts, drops, dups []int
		for range seeds {
			res := results[k]
			k++
			term := res.AllCorrectDecided()
			if term {
				decided++
				lasts = append(lasts, res.LastDecisionRound())
			}
			// Ungated on purpose: the sweep measures how often loss and
			// partitions break Agreement.
			if property.CheckAgreement(res.Outcomes()) == nil {
				agreed++
			}
			drops = append(drops, res.Metrics.Dropped)
			dups = append(dups, res.Metrics.Duplicated)
		}
		last := "-"
		if len(lasts) > 0 {
			last = fmt.Sprintf("%.1f", mean(lasts))
		}
		t.add(pt.name, n, len(seeds),
			rate(decided, len(seeds)), rate(agreed, len(seeds)),
			last, fmt.Sprintf("%.1f", mean(drops)), fmt.Sprintf("%.1f", mean(dups)))
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "(ES, GST=%d; agree rate counts runs whose deciders all agreed — loss and partitions break the reliable-broadcast assumption, so < 100%% is the demonstration, not a bug)\n", gst)
	return err
}

// rate renders hits/total as a percentage.
func rate(hits, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%d%%", 100*hits/total)
}
