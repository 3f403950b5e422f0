package expt

import (
	"fmt"
	"io"
	"strings"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/fd"
	"anonconsensus/internal/sim"
)

// runT10: every candidate Σ emulator is destroyed by the Prop. 4 two-run
// construction.
func runT10(w io.Writer, quick bool) error {
	horizon := 1000
	if quick {
		horizon = 200
	}
	t := newTable("candidate", "violated property", "p0 outputs {p0} at", "p1 outputs {p1} at")
	candidates := []struct {
		name string
		mk   func() fd.SigmaCandidate
	}{
		{"timeout quorum (W=3)", func() fd.SigmaCandidate { return &fd.TimeoutQuorum{Window: 3} }},
		{"timeout quorum (W=10)", func() fd.SigmaCandidate { return &fd.TimeoutQuorum{Window: 10} }},
		{"majority stick (S=5)", func() fd.SigmaCandidate { return &fd.MajorityStick{Silence: 5} }},
		{"eager self", func() fd.SigmaCandidate { return &fd.EagerSelf{} }},
	}
	violations := make([]*fd.Violation, len(candidates))
	err := forTrials(len(candidates), func(i int) error {
		h := &fd.Prop4Harness{New: candidates[i].mk, Horizon: horizon}
		v, err := h.Disprove()
		if err != nil {
			return fmt.Errorf("T10 %s: %w", candidates[i].name, err)
		}
		violations[i] = v
		return nil
	})
	if err != nil {
		return err
	}
	for i, c := range candidates {
		v := violations[i]
		r1, r2 := "-", "-"
		if v.RunOneRound > 0 {
			r1 = fmt.Sprint(v.RunOneRound)
		}
		if v.RunTwoRound > 0 {
			r2 = fmt.Sprint(v.RunTwoRound)
		}
		t.add(c.name, v.Kind, r1, r2)
	}
	return t.write(w)
}

// runF1: decision-round percentiles over many random schedules.
func runF1(w io.Writer, quick bool) error {
	seeds := 500
	if quick {
		seeds = 40
	}
	const n, gst = 8, 10
	t := newTable("algorithm", "runs", "p50", "p90", "p99", "max")
	// One batch for both algorithms: ES configs first, then ESS, each seed
	// an independent run.
	cfgs := make([]sim.Config, 0, 2*seeds)
	for seed := int64(0); seed < int64(seeds); seed++ {
		cfgs = append(cfgs, core.ConfigES(core.DistinctProposals(n), core.RunOpts{
			Policy: &env.ES{GST: gst, Pre: env.MS{Seed: seed, MaxDelay: 4, Alternate: seed%2 == 0}},
		}))
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		cfgs = append(cfgs, core.ConfigESS(core.DistinctProposals(n), core.RunOpts{
			Policy:    &env.ESS{GST: gst, StableSource: int(seed) % n, Pre: env.MS{Seed: seed, Alternate: seed%2 == 0}},
			MaxRounds: 800,
		}))
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	collect := func(alg string, results []*sim.Result) ([]int, error) {
		var out []int
		for seed, res := range results {
			if err := check(res, core.DistinctProposals(n), fmt.Sprintf("F1 %s seed %d", alg, seed)); err != nil {
				return nil, err
			}
			out = append(out, res.LastDecisionRound())
		}
		return out, nil
	}
	esRounds, err := collect("ES", results[:seeds])
	if err != nil {
		return err
	}
	essRounds, err := collect("ESS", results[seeds:])
	if err != nil {
		return err
	}
	t.add("ES (Alg 2)", len(esRounds), percentile(esRounds, 50), percentile(esRounds, 90), percentile(esRounds, 99), percentile(esRounds, 100))
	t.add("ESS (Alg 3)", len(essRounds), percentile(essRounds, 50), percentile(essRounds, 90), percentile(essRounds, 99), percentile(essRounds, 100))
	return t.write(w)
}

// runF2: time series of self-considered leaders per round in one ESS run.
func runF2(w io.Writer, quick bool) error {
	const n, gst, src = 5, 8, 2
	maxShown := 40
	if quick {
		maxShown = 20
	}
	counts := make(map[int]int)
	res, err := core.RunESS(core.DistinctProposals(n), core.RunOpts{
		Policy:    &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: 3}},
		MaxRounds: 600,
		OnRound: func(r int, e *sim.Engine) {
			c := 0
			for i := 0; i < e.N(); i++ {
				if a, ok := e.Automaton(i).(*core.ESS); ok && !e.Proc(i).Halted() && a.IsLeader() {
					c++
				}
			}
			counts[r] = c
		},
	})
	if err != nil {
		return err
	}
	if err := check(res, core.DistinctProposals(n), "F2"); err != nil {
		return err
	}
	t := newTable("round", "self-considered leaders", "")
	last := res.LastDecisionRound()
	if last > maxShown {
		last = maxShown
	}
	for r := 1; r <= last; r++ {
		bar := strings.Repeat("█", counts[r])
		t.add(r, counts[r], bar)
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "(GST=%d, stable source=p%d; decisions complete at round %d)\n",
		gst, src, res.LastDecisionRound())
	return err
}

// runF3: the adversarial alternating-source schedule keeps Algorithm 2
// undecided for arbitrarily long, with the MS property machine-checked.
func runF3(w io.Writer, quick bool) error {
	horizons := []int{100, 500, 1000}
	if quick {
		horizons = []int{50, 100}
	}
	t := newTable("rounds run", "MS property", "decisions", "conclusion")
	cfgs := make([]sim.Config, len(horizons))
	for i, h := range horizons {
		cfgs[i] = core.ConfigES(core.SplitProposals(4, 2), core.RunOpts{
			Policy:      &env.AlternatingMS{A: 0, B: 3},
			MaxRounds:   h,
			RecordTrace: true,
		})
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return err
	}
	for i, h := range horizons {
		res := results[i]
		msOK := "holds every round"
		if err := res.Trace.CheckMS(); err != nil {
			msOK = err.Error()
		}
		concl := "no decision: MS alone insufficient"
		if d := res.Decisions(); d.Len() > 0 {
			concl = fmt.Sprintf("DECIDED %v (unexpected)", d)
		}
		t.add(h, msOK, res.Decisions().Len(), concl)
	}
	return t.write(w)
}
