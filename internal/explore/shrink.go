package explore

import (
	"slices"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/ordered"
	"anonconsensus/internal/property"
	"anonconsensus/internal/sim"
)

// shrinkTrace minimizes a violating trace by delta debugging: it repeatedly
// probes structurally smaller variants — truncating the schedule horizon,
// zeroing delay-matrix entries, and stripping scenario faults — and keeps a
// variant only when its deterministic replay still violates the *same*
// property (matching on kind, not message: a minimal counterexample usually
// fails with different concrete values). The loop runs to a fixed point, so
// the result is locally minimal: removing any single remaining element
// makes the violation disappear. It returns the minimized trace, the
// violation its replay reproduces, and the number of probe runs executed.
//
// Probes run sequentially on the calling goroutine in a fixed order, so
// shrinking is deterministic and the surrounding report stays byte-identical
// at any parallelism.
func shrinkTrace(cfg *Config, tr Trace, kind property.Kind, violation string) (Trace, string, int) {
	probes := 0
	// fails replays a candidate and reports whether the original property
	// still breaks, remembering the concrete message.
	fails := func(cand Trace) (string, bool) {
		probes++
		res, err := sim.Run(cand.simConfig(cfg.Automaton))
		if err != nil {
			return "", false // an unrunnable mutation is never an improvement
		}
		vs := res.Check(core.ProposalSet(cand.Proposals), cand.Scenario, cand.terminationExpected())
		if i := slices.IndexFunc(vs, func(v *property.Violation) bool { return v.Kind == kind }); i >= 0 {
			return vs[i].Msg, true
		}
		return "", false
	}

	cur := tr.clone()
	for changed := true; changed; {
		changed = false
		// 1. Truncate the schedule from the end: fewer explicitly-scheduled
		// rounds means a shorter counterexample horizon.
		for len(cur.Schedule) > 1 {
			cand := cur.clone()
			cand.Schedule = cand.Schedule[:len(cand.Schedule)-1]
			v, bad := fails(cand)
			if !bad {
				break
			}
			cur, violation, changed = cand, v, true
		}
		// 2. Zero individual delay entries: a zeroed link is a timely link,
		// the least adversarial choice.
		for r := range cur.Schedule {
			for i := range cur.Schedule[r] {
				for j, d := range cur.Schedule[r][i] {
					if d == 0 {
						continue
					}
					cand := cur.clone()
					cand.Schedule[r][i][j] = 0
					if v, bad := fails(cand); bad {
						cur, violation, changed = cand, v, true
					}
				}
			}
		}
		// 3. Strip scenario faults, coarsest first: the whole scenario, then
		// each dimension, then individual partitions and crashes.
		if !cur.Scenario.Empty() {
			cand := cur.clone()
			cand.Scenario = nil
			if v, bad := fails(cand); bad {
				cur, violation, changed = cand, v, true
			}
		}
		if sc := cur.Scenario; sc != nil {
			if sc.LossPct > 0 {
				cand := cur.clone()
				cand.Scenario.LossPct = 0
				if v, bad := fails(cand); bad {
					cur, violation, changed = cand, v, true
				}
			}
			if sc := cur.Scenario; sc != nil && sc.DupPct > 0 {
				cand := cur.clone()
				cand.Scenario.DupPct = 0
				if v, bad := fails(cand); bad {
					cur, violation, changed = cand, v, true
				}
			}
			for idx := 0; cur.Scenario != nil && idx < len(cur.Scenario.Partitions); {
				cand := cur.clone()
				cand.Scenario.Partitions = append(cand.Scenario.Partitions[:idx],
					cand.Scenario.Partitions[idx+1:]...)
				if v, bad := fails(cand); bad {
					cur, violation, changed = cand, v, true
				} else {
					idx++
				}
			}
			for _, pid := range crashPids(cur.Scenario) {
				cand := cur.clone()
				delete(cand.Scenario.Crashes, pid)
				if v, bad := fails(cand); bad {
					cur, violation, changed = cand, v, true
				}
			}
		}
	}
	return cur, violation, probes
}

// crashPids returns the crash-schedule pids in ascending order so shrink
// probing is deterministic.
func crashPids(sc *env.Scenario) []int {
	if sc == nil {
		return nil
	}
	return ordered.Keys(sc.Crashes)
}
