package expt

import (
	"fmt"
	"io"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/msemu"
	"anonconsensus/internal/property"
	"anonconsensus/internal/register"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

// runT6: message complexity — what the anonymous pseudo leader election
// costs on the wire compared to Algorithm 2 and the Ω oracle baseline.
func runT6(w io.Writer, quick bool) error {
	const n = 6
	gst := 24 // long pre-decision phase so history/counter growth shows
	if quick {
		gst = 8
	}
	pol := func(seed int64) *env.ESS {
		return &env.ESS{GST: gst, StableSource: 0, Pre: env.MS{Seed: seed}}
	}
	t := newTable("algorithm", "rounds", "total payload bytes", "max envelope bytes", "bytes/broadcast")

	props := core.DistinctProposals(n)
	results, err := runConfigs([]sim.Config{
		core.ConfigES(props, core.RunOpts{Policy: &env.ES{GST: gst, Pre: env.MS{Seed: 1}}}),
		core.ConfigESS(props, core.RunOpts{Policy: pol(1), MaxRounds: 600}),
		core.ConfigOmega(props, core.EventualOracle(0, gst), core.RunOpts{Policy: pol(1), MaxRounds: 600}),
	})
	if err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		res  *sim.Result
	}{
		{"ES (Alg 2)", results[0]},
		{"ESS (Alg 3, anon pseudo-leader)", results[1]},
		{"Ω baseline (oracle IDs)", results[2]},
	} {
		if err := check(row.res, props, "T6 "+row.name); err != nil {
			return err
		}
		m := row.res.Metrics
		perB := 0
		if m.Broadcasts > 0 {
			perB = m.PayloadBytes / m.Broadcasts
		}
		t.add(row.name, row.res.Rounds, m.PayloadBytes, m.MaxEnvelopeBytes, perB)
	}
	return t.write(w)
}

// runT7: weak-set add latency in MS as the adversary's delay bound grows.
func runT7(w io.Writer, quick bool) error {
	delays := []int{1, 2, 4, 8}
	if quick {
		delays = []int{1, 4}
	}
	t := newTable("max delay", "rotation", "add latency rounds (mean)", "add latency rounds (max)")
	// The weak-set driver owns its own engine, so the grid fans out over
	// forTrials rather than the sim batch runner; collection stays in grid
	// order.
	seeds := seedsFor(quick)
	rots := []int{1, 4}
	type trial struct {
		d, rot int
		seed   int64
		res    *weakset.SimResult
	}
	var trials []trial
	for _, d := range delays {
		for _, rot := range rots {
			for _, seed := range seeds {
				trials = append(trials, trial{d: d, rot: rot, seed: seed})
			}
		}
	}
	err := forTrials(len(trials), func(i int) error {
		tr := &trials[i]
		ops := []weakset.ScheduledOp{
			{Proc: 0, Round: 1, Kind: weakset.OpAdd, Value: values.Num(1)},
			{Proc: 2, Round: 2, Kind: weakset.OpAdd, Value: values.Num(2)},
		}
		res, err := weakset.RunMS(5, ops, &env.MS{Seed: tr.seed, MaxDelay: tr.d, RotationPeriod: tr.rot}, 60+20*tr.d, nil)
		if err != nil {
			return err
		}
		tr.res = res
		return nil
	})
	if err != nil {
		return err
	}
	k := 0
	for _, d := range delays {
		for _, rot := range rots {
			var lats []int
			maxLat := 0
			for _, seed := range seeds {
				res := trials[k].res
				k++
				if err := res.Checker.Check(); err != nil {
					return fmt.Errorf("T7 d=%d seed=%d: %w", d, seed, err)
				}
				recs := res.CompletedAdds()
				if len(recs) != 2 {
					return fmt.Errorf("T7 d=%d seed=%d: %d/2 adds completed", d, seed, len(recs))
				}
				for _, rec := range recs {
					lat := rec.Completed - rec.Started
					lats = append(lats, lat)
					if lat > maxLat {
						maxLat = lat
					}
				}
			}
			t.add(d, rot, fmt.Sprintf("%.1f", mean(lats)), maxLat)
		}
	}
	return t.write(w)
}

// runT8: the register ⇄ weak-set constructions (Props 1–3) measured end to
// end, including over the ABD message-passing cluster.
func runT8(w io.Writer, quick bool) error {
	opsN := 2000
	if quick {
		opsN = 200
	}
	t := newTable("construction", "ops", "wall time", "ns/op")

	// Prop 1: register from in-memory weak-set.
	var ws weakset.Memory
	reg := register.NewFromWeakSet(&ws)
	el, err := walltime(func() error {
		for i := 0; i < opsN; i++ {
			if err := reg.Write(values.Num(int64(i))); err != nil {
				return err
			}
			if _, err := reg.Read(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("Prop1 reg←weakset (memory)", 2*opsN, el.Round(time.Microsecond), el.Nanoseconds()/int64(2*opsN))

	// Prop 2: weak-set from SWMR registers over an ABD quorum cluster.
	abdOps := opsN / 10
	cluster := register.NewABD(3)
	defer cluster.Close()
	swmr := weakset.NewFromSWMR([]weakset.Slot{cluster.Writer(1)})
	h := swmr.Handle(0)
	el, err = walltime(func() error {
		for i := 0; i < abdOps; i++ {
			if err := h.Add(values.Num(int64(i))); err != nil {
				return err
			}
			if _, err := h.Get(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("Prop2 weakset←SWMR (over ABD n=3)", 2*abdOps, el.Round(time.Microsecond), el.Nanoseconds()/int64(2*abdOps))

	// Prop 3: weak-set from per-value MWMR flags.
	domain := make([]values.Value, 64)
	for i := range domain {
		domain[i] = values.Num(int64(i))
	}
	fin := weakset.NewFromFinite(domain, func(values.Value) weakset.Slot { return &register.Memory{} })
	el, err = walltime(func() error {
		for i := 0; i < opsN; i++ {
			if err := fin.Add(domain[i%len(domain)]); err != nil {
				return err
			}
			if _, err := fin.Get(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("Prop3 weakset←MWMR flags (|V|=64)", 2*opsN, el.Round(time.Microsecond), el.Nanoseconds()/int64(2*opsN))
	return t.write(w)
}

// runT9: Algorithm 5 — emulate MS rounds from a weak-set, validate the
// source property, report throughput.
func runT9(w io.Writer, quick bool) error {
	ns := []int{2, 4, 8}
	rounds := 200
	if quick {
		ns = []int{2, 4}
		rounds = 40
	}
	t := newTable("n", "emulated rounds", "wall time", "MS property", "decisions agree")
	for _, n := range ns {
		props := core.SplitProposals(n, 2)
		var res *msemu.Result
		el, err := walltime(func() error {
			var err error
			res, err = msemu.Run(msemu.Config{
				N:         n,
				Automaton: func(i int) giraf.Automaton { return core.NewES(props[i]) },
				Codec:     msemu.SetCodec{},
				Set:       &weakset.Memory{},
				MaxRounds: rounds,
			})
			return err
		})
		if err != nil {
			return err
		}
		if len(res.Errs) > 0 {
			return fmt.Errorf("T9 n=%d: %v", n, res.Errs)
		}
		msOK := "ok"
		if err := res.CheckMS(); err != nil {
			msOK = err.Error()
		}
		agree := "yes"
		if v := property.CheckAgreement(res.Outcomes); v != nil {
			agree = v.Msg
		} else if property.Decisions(res.Outcomes).Len() == 0 {
			agree = "n/a (none decided)"
		}
		t.add(n, rounds, el.Round(time.Millisecond), msOK, agree)
	}
	return t.write(w)
}
