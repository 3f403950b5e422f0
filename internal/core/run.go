package core

import (
	"context"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// RunOpts configures a convenience simulation run of one of the consensus
// automata.
type RunOpts struct {
	// Policy is the environment; required.
	Policy env.Policy
	// Ctx, when non-nil, cancels the run between global steps (the public
	// Node API threads its per-instance context through here). Nil means
	// run to completion.
	Ctx context.Context
	// Scenario is the run's fault description (crash schedule, loss,
	// duplication, partitions); nil means fault-free.
	Scenario *env.Scenario
	// MaxRounds bounds the run; 0 defaults to 10·n + 200.
	MaxRounds int
	// RecordTrace forwards sim.Config.RecordTrace.
	RecordTrace bool
	// OnRound forwards sim.Config.OnRound.
	OnRound func(round int, e *sim.Engine)
}

func (o RunOpts) maxRounds(n int) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 10*n + 200
}

func (o RunOpts) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// config assembles the sim.Config shared by every consensus runner.
func (o RunOpts) config(n int, aut func(i int) giraf.Automaton) sim.Config {
	return sim.Config{
		N:           n,
		Automaton:   aut,
		Policy:      o.Policy,
		Scenario:    o.Scenario,
		MaxRounds:   o.maxRounds(n),
		RecordTrace: o.RecordTrace,
		OnRound:     o.OnRound,
	}
}

// ConfigES returns the sim.Config that RunES would execute, for callers
// that fan grid points over sim.RunBatch instead of running inline. The
// config's Policy (and OnRound closure, if any) belong to this one run.
// RunOpts.Ctx is NOT carried into the config — cancellation of a batched
// run is the batch runner's ctx argument's concern. Processes that adopt
// one shared round compute its aggregates once (see roundAggregate).
func ConfigES(proposals []values.Value, opts RunOpts) sim.Config {
	return opts.config(len(proposals), func(i int) giraf.Automaton { return NewES(proposals[i]) })
}

// ConfigESS is ConfigES for Algorithm 3. A shared round's aggregate also
// carries the counter table after lines 8–9, so a timely round merges and
// bumps once, not once per process.
func ConfigESS(proposals []values.Value, opts RunOpts) sim.Config {
	return opts.config(len(proposals), func(i int) giraf.Automaton { return NewESS(proposals[i]) })
}

// ConfigOmega is ConfigES for the Ω baseline. The oracle factory receives
// the process index so tests can build eventually-accurate oracles.
func ConfigOmega(proposals []values.Value, oracle func(i int) LeaderOracle, opts RunOpts) sim.Config {
	return opts.config(len(proposals), func(i int) giraf.Automaton {
		return NewOmegaConsensus(proposals[i], oracle(i))
	})
}

// RunES simulates Algorithm 2 with one process per proposal value.
func RunES(proposals []values.Value, opts RunOpts) (*sim.Result, error) {
	return sim.RunContext(opts.ctx(), ConfigES(proposals, opts))
}

// RunESS simulates Algorithm 3 with one process per proposal value.
func RunESS(proposals []values.Value, opts RunOpts) (*sim.Result, error) {
	return sim.RunContext(opts.ctx(), ConfigESS(proposals, opts))
}

// RunOmega simulates the Ω baseline.
func RunOmega(proposals []values.Value, oracle func(i int) LeaderOracle, opts RunOpts) (*sim.Result, error) {
	return sim.RunContext(opts.ctx(), ConfigOmega(proposals, oracle, opts))
}

// EventualOracle builds an Ω oracle family that stabilizes at round gst to
// the single leader `leader`: before gst every process considers itself a
// leader (maximally wrong), afterwards only `leader` does.
func EventualOracle(leader, gst int) func(i int) LeaderOracle {
	return func(i int) LeaderOracle {
		return func(round int) bool {
			if round < gst {
				return true
			}
			return i == leader
		}
	}
}

// ProposalSet collects a proposal slice into a value set (for validity
// checks).
func ProposalSet(proposals []values.Value) values.Set {
	return values.NewSet(proposals...)
}

// DistinctProposals returns n distinct numeric proposals 0..n-1.
func DistinctProposals(n int) []values.Value {
	out := make([]values.Value, n)
	for i := range out {
		out[i] = values.Num(int64(i))
	}
	return out
}

// SplitProposals returns n proposals drawn from k distinct values
// round-robin (value i%k for process i), the workload used by the
// convergence experiments.
func SplitProposals(n, k int) []values.Value {
	out := make([]values.Value, n)
	for i := range out {
		out[i] = values.Num(int64(i % k))
	}
	return out
}
