package explore

import (
	"context"
	"math/rand"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/sim"
)

// trialSeed derives the deterministic RNG seed of one trial with a
// splitmix64-style mix, so nearby (seed, trial) pairs never share streams.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(trial+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	return int64(z)
}

// sampleSchedule draws one PCT-style schedule: a random priority order over
// the processes picks each round's source (its envelopes are all timely, so
// every matrix is MS-valid by construction), the order is reshuffled at
// `depth` randomly placed change points, and every non-source link draws a
// uniform delay in [0, maxDelay]. Source duty skips processes the
// scenario's crash schedule stops before they could broadcast the round —
// a crashed source would leave the round without one, i.e. outside the MS
// model, and the agreement check would rightly refuse to judge such a run;
// skipping keeps the sampled executions inside the model (decisions can
// still break MS later by halting a designated source, which the
// trace-based gate in property.Check handles).
func sampleSchedule(rng *rand.Rand, n, horizon, maxDelay, depth int, sc *env.Scenario) []matrix {
	prio := rng.Perm(n)
	if depth > horizon {
		depth = horizon
	}
	change := make(map[int]bool, depth)
	if depth > 0 {
		for _, r := range rng.Perm(horizon)[:depth] {
			change[r] = true
		}
	}
	// sendsRound reports whether p is still broadcasting round r envelopes
	// under the crash schedule (it crashes strictly before step r-1 ⇒ no).
	sendsRound := func(p, r int) bool {
		cr, crashes := sc.CrashRound(p)
		return !crashes || cr >= r
	}
	mats := make([]matrix, horizon)
	for r := 0; r < horizon; r++ {
		if change[r] {
			prio = rng.Perm(n)
		}
		src := prio[0]
		for _, p := range prio {
			if sendsRound(p, r+1) {
				src = p
				break
			}
		}
		m := newMatrix(n)
		for i := 0; i < n; i++ {
			if i == src {
				continue
			}
			for j := 0; j < n; j++ {
				if i != j {
					m[i][j] = rng.Intn(maxDelay + 1)
				}
			}
		}
		mats[r] = m
	}
	return mats
}

// sampleTrial draws the complete trace of one randomized trial.
func sampleTrial(cfg *Config, trial int) Trace {
	rng := env.NewRand(trialSeed(cfg.Seed, trial))
	n := len(cfg.Proposals)
	// Scenario draw first so the schedule stream is independent of whether
	// the trial is faulted.
	sc := cfg.Scenario
	if sc == nil && cfg.ScenarioPct > 0 && rng.Intn(100) < cfg.ScenarioPct {
		sc = env.RandomAdversary(trialSeed(cfg.Seed, trial), n)
	}
	return Trace{
		Algorithm:  cfg.Algorithm,
		Proposals:  cfg.Proposals,
		Tail:       cfg.tail(),
		SyncSteady: true,
		Schedule:   sampleSchedule(rng, n, cfg.horizon(), cfg.maxDelay(), cfg.depth(), sc),
		Scenario:   sc,
	}
}

// randomWave bounds how many trial configurations are materialized at once:
// trials are sampled, fanned over the RunBatch pool and checked wave by
// wave, so memory stays flat at any trial count while results — collected
// in submission order — are independent of both the wave size and the
// parallelism.
const randomWave = 512

// runRandom executes the randomized search.
func runRandom(cfg Config) (*Report, error) {
	report := &Report{Mode: ModeRandom}
	proposals := core.ProposalSet(cfg.Proposals)
	trials := cfg.trials()
	for lo := 0; lo < trials; lo += randomWave {
		hi := lo + randomWave
		if hi > trials {
			hi = trials
		}
		traces := make([]Trace, hi-lo)
		cfgs := make([]sim.Config, hi-lo)
		for i := range traces {
			traces[i] = sampleTrial(&cfg, lo+i)
			cfgs[i] = traces[i].simConfig(cfg.Automaton)
		}
		results, err := sim.RunBatch(context.Background(), cfgs, sim.BatchOpts{Parallelism: cfg.Parallelism})
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			trial := lo + i
			report.Schedules++
			vs := report.tally(res, proposals, traces[i].Scenario, traces[i].terminationExpected(), "trial %d: ", trial)
			if len(vs) == 0 {
				continue
			}
			if len(report.Counterexamples) < cfg.maxCounterexamples() {
				report.Counterexamples = append(report.Counterexamples,
					buildCounterexample(&cfg, traces[i].clone(), trial, vs[0].Msg))
			}
		}
	}
	return report, nil
}
