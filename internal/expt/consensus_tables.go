package expt

import (
	"fmt"
	"io"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/fd"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
)

// seedsFor returns the averaging seeds for a grid point.
func seedsFor(quick bool) []int64 {
	if quick {
		return []int64{1, 2}
	}
	return []int64{1, 2, 3, 4, 5, 6, 7, 8}
}

// The tables below fan their grids over the batch runner: configs are
// built in loop order, run across the worker pool, and post-processed in
// the same loop order, so rendered output (and the first error reported)
// is byte-identical to the sequential loops they replaced.

// runT1: ES decision round vs n, synchronous-from-start and GST=10.
func runT1(w io.Writer, quick bool) error {
	ns := []int{2, 4, 8, 16, 32, 64}
	if quick {
		ns = []int{2, 4, 8}
	}
	seeds := seedsFor(quick)
	var cfgs []sim.Config
	for _, n := range ns {
		props := core.DistinctProposals(n)
		cfgs = append(cfgs, core.ConfigES(props, core.RunOpts{Policy: env.Synchronous{}}))
		for _, seed := range seeds {
			cfgs = append(cfgs, core.ConfigES(props, core.RunOpts{
				Policy: &env.ES{GST: 10, Pre: env.MS{Seed: seed, MaxDelay: 3}},
			}))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	t := newTable("n", "rounds (GST=0)", "rounds (GST=10, mean)", "broadcasts (GST=10, mean)")
	k := 0
	for _, n := range ns {
		syncRes := results[k]
		k++
		props := core.DistinctProposals(n)
		if err := check(syncRes, props, fmt.Sprintf("T1 synchronous n=%d", n)); err != nil {
			return err
		}
		var rounds, bcasts []int
		for _, seed := range seeds {
			res := results[k]
			k++
			if err := check(res, props, fmt.Sprintf("T1 n=%d seed=%d", n, seed)); err != nil {
				return err
			}
			rounds = append(rounds, res.LastDecisionRound())
			bcasts = append(bcasts, res.Metrics.Broadcasts)
		}
		t.add(n, syncRes.LastDecisionRound(), fmt.Sprintf("%.1f", mean(rounds)), fmt.Sprintf("%.0f", mean(bcasts)))
	}
	return t.write(w)
}

// runT2: ES decision round vs GST at fixed n.
func runT2(w io.Writer, quick bool) error {
	gsts := []int{0, 4, 8, 16, 32, 64}
	if quick {
		gsts = []int{0, 4, 8}
	}
	const n = 8
	seeds := seedsFor(quick)
	var cfgs []sim.Config
	for _, gst := range gsts {
		for _, seed := range seeds {
			cfgs = append(cfgs, core.ConfigES(core.DistinctProposals(n), core.RunOpts{
				// Alternating pre-GST sources keep the system undecided
				// until stabilization, so GST is actually load-bearing.
				Policy: &env.ES{GST: gst, Pre: env.MS{Seed: seed, Alternate: true}},
			}))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	t := newTable("GST", "first decision (mean)", "last decision (mean)", "last − GST")
	k := 0
	for _, gst := range gsts {
		var firsts, lasts []int
		for _, seed := range seeds {
			res := results[k]
			k++
			if err := check(res, core.DistinctProposals(n), fmt.Sprintf("T2 gst=%d seed=%d", gst, seed)); err != nil {
				return err
			}
			firsts = append(firsts, res.FirstDecisionRound())
			lasts = append(lasts, res.LastDecisionRound())
		}
		t.add(gst, fmt.Sprintf("%.1f", mean(firsts)), fmt.Sprintf("%.1f", mean(lasts)),
			fmt.Sprintf("%.1f", mean(lasts)-float64(gst)))
	}
	return t.write(w)
}

// runT3: ESS decision round vs n under a single stable source.
func runT3(w io.Writer, quick bool) error {
	ns := []int{2, 4, 8, 16}
	if quick {
		ns = []int{2, 4}
	}
	const gst = 8
	seeds := seedsFor(quick)
	var cfgs []sim.Config
	hists := make([]int, len(ns)*len(seeds))
	for ni, n := range ns {
		for si, seed := range seeds {
			props := core.DistinctProposals(n)
			hist := &hists[ni*len(seeds)+si]
			cfgs = append(cfgs, core.ConfigESS(props, core.RunOpts{
				Policy:    &env.ESS{GST: gst, StableSource: int(seed) % n, Pre: env.MS{Seed: seed, Alternate: true}},
				MaxRounds: 600,
				// Runs on the worker executing this one config; *hist is
				// owned by this run until the batch returns.
				OnRound: func(r int, e *sim.Engine) {
					for i := 0; i < e.N(); i++ {
						if a, ok := e.Automaton(i).(*core.ESS); ok && !e.Proc(i).Halted() {
							if l := a.History().Len(); l > *hist {
								*hist = l
							}
						}
					}
				},
			}))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	t := newTable("n", "last decision (mean)", "last decision (max)", "max history len")
	k := 0
	for _, n := range ns {
		var lasts []int
		maxLast, maxHist := 0, 0
		for _, seed := range seeds {
			res, hist := results[k], hists[k]
			k++
			if err := check(res, core.DistinctProposals(n), fmt.Sprintf("T3 n=%d seed=%d", n, seed)); err != nil {
				return err
			}
			lasts = append(lasts, res.LastDecisionRound())
			if l := res.LastDecisionRound(); l > maxLast {
				maxLast = l
			}
			if hist > maxHist {
				maxHist = hist
			}
		}
		t.add(n, fmt.Sprintf("%.1f", mean(lasts)), maxLast, maxHist)
	}
	return t.write(w)
}

// runT4: pseudo leader election convergence vs the ID-based Ω baseline.
func runT4(w io.Writer, quick bool) error {
	type point struct{ n, distinct int }
	grid := []point{{3, 2}, {5, 2}, {5, 5}, {9, 3}}
	if quick {
		grid = []point{{3, 2}, {5, 2}}
	}
	const gst = 8
	seeds := seedsFor(quick)
	var cfgs []sim.Config
	var finish []func(*sim.Result) (int, error)
	for _, pt := range grid {
		for _, seed := range seeds {
			src := int(seed) % pt.n
			cfg, fin := leaderStableTrial(pt.n, pt.distinct, gst, src, seed)
			cfgs, finish = append(cfgs, cfg), append(finish, fin)
			cfg, fin = omegaStableTrial(pt.n, gst, src, seed)
			cfgs, finish = append(cfgs, cfg), append(finish, fin)
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	t := newTable("n", "#values", "anon leader stable at (mean)", "Ω(IDs) stable at (mean)")
	k := 0
	for _, pt := range grid {
		var anonRounds, omegaRounds []int
		for range seeds {
			anon, err := finish[k](results[k])
			if err != nil {
				return err
			}
			k++
			omega, err := finish[k](results[k])
			if err != nil {
				return err
			}
			k++
			anonRounds = append(anonRounds, anon)
			omegaRounds = append(omegaRounds, omega)
		}
		t.add(pt.n, pt.distinct, fmt.Sprintf("%.1f", mean(anonRounds)), fmt.Sprintf("%.1f", mean(omegaRounds)))
	}
	return t.write(w)
}

// leaderStableTrial builds the ESS run whose finisher returns the first
// round from which the self-considered leader set stayed stable until the
// first decision.
func leaderStableTrial(n, distinct, gst, src int, seed int64) (sim.Config, func(*sim.Result) (int, error)) {
	props := core.SplitProposals(n, distinct)
	type sample struct {
		round   int
		leaders string
	}
	var samples []sample
	cfg := core.ConfigESS(props, core.RunOpts{
		Policy:    &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: seed, Alternate: true}},
		MaxRounds: 600,
		OnRound: func(r int, e *sim.Engine) {
			key := ""
			for i := 0; i < e.N(); i++ {
				if a, ok := e.Automaton(i).(*core.ESS); ok && !e.Proc(i).Halted() && a.IsLeader() {
					key += fmt.Sprintf("%d,", i)
				}
			}
			samples = append(samples, sample{round: r, leaders: key})
		},
	})
	finish := func(res *sim.Result) (int, error) {
		if err := check(res, props, fmt.Sprintf("T4 ESS n=%d seed=%d", n, seed)); err != nil {
			return 0, err
		}
		end := res.FirstDecisionRound()
		stable := end
		for i := len(samples) - 1; i > 0; i-- {
			if samples[i].round >= end {
				continue
			}
			if samples[i].leaders != samples[i-1].leaders {
				break
			}
			stable = samples[i].round
		}
		return stable, nil
	}
	return cfg, finish
}

// omegaStableTrial builds the ID-based Ω tracker run on the same schedule
// shape; its finisher returns the first round from which all leader
// estimates equal the source and never change again.
func omegaStableTrial(n, gst, src int, seed int64) (sim.Config, func(*sim.Result) (int, error)) {
	trackers := make([]*fd.OmegaTracker, n)
	lastUnstable := 0
	const rounds = 300
	cfg := sim.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			trackers[i] = fd.NewOmegaTracker(i)
			return trackers[i]
		},
		Policy:    &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: seed, Alternate: true}},
		MaxRounds: rounds,
		OnRound: func(r int, e *sim.Engine) {
			for _, tr := range trackers {
				if tr.Leader() != src {
					lastUnstable = r
					return
				}
			}
		},
	}
	finish := func(*sim.Result) (int, error) {
		if lastUnstable >= rounds {
			return 0, fmt.Errorf("T4: Ω never stabilized (n=%d seed=%d)", n, seed)
		}
		return lastUnstable + 1, nil
	}
	return cfg, finish
}

// runT5: decision rounds under crash sweeps, ES and ESS.
func runT5(w io.Writer, quick bool) error {
	const n = 8
	crashCounts := []int{0, 2, 4, 7}
	if quick {
		crashCounts = []int{0, 4}
	}
	seeds := seedsFor(quick)
	var cfgs []sim.Config
	for _, f := range crashCounts {
		for _, seed := range seeds {
			crashes := &env.Scenario{Crashes: make(map[int]int)}
			for i := 0; i < f; i++ {
				crashes.Crashes[i] = 2*i + 1 // staggered crashes
			}
			props := core.DistinctProposals(n)
			cfgs = append(cfgs, core.ConfigES(props, core.RunOpts{
				Policy:   &env.ES{GST: 10, Pre: env.MS{Seed: seed}},
				Scenario: crashes,
			}))
			// The stable source must survive: use the highest index (never
			// crashed in the staggered schedule).
			cfgs = append(cfgs, core.ConfigESS(props, core.RunOpts{
				Policy:    &env.ESS{GST: 10, StableSource: n - 1, Pre: env.MS{Seed: seed}},
				Scenario:  crashes,
				MaxRounds: 600,
			}))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	t := newTable("crashes", "ES last decision (mean)", "ESS last decision (mean)")
	k := 0
	for _, f := range crashCounts {
		var esRounds, essRounds []int
		for _, seed := range seeds {
			esRes, essRes := results[k], results[k+1]
			k += 2
			for _, res := range []*sim.Result{esRes, essRes} {
				if err := check(res, core.DistinctProposals(n), fmt.Sprintf("T5 f=%d seed=%d", f, seed)); err != nil {
					return err
				}
			}
			esRounds = append(esRounds, esRes.LastDecisionRound())
			essRounds = append(essRounds, essRes.LastDecisionRound())
		}
		t.add(f, fmt.Sprintf("%.1f", mean(esRounds)), fmt.Sprintf("%.1f", mean(essRounds)))
	}
	return t.write(w)
}
