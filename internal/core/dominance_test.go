package core

import (
	"fmt"
	"strings"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// viewLogger wraps a round-local automaton and logs the structural content
// of every round view it computes from: the canonical payload keys in
// iteration order. It keeps the marker, so the process still recycles a
// round once computed; the view is taken at compute time, the last moment
// it exists. Two runs with equal logs agreed on every round view every
// process ever computed from.
type viewLogger struct {
	giraf.Automaton
	i   int
	log *[]string
}

func (viewLogger) ReadsOnlyRound() {}

func (v viewLogger) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d p%d|", k, v.i)
	for _, p := range in.Round(k) {
		b.WriteString(p.PayloadKey())
		b.WriteByte(',')
	}
	*v.log = append(*v.log, b.String())
	return v.Automaton.Compute(k, in)
}

// logRoundViews wraps every automaton of cfg in a viewLogger.
func logRoundViews(cfg sim.Config) (sim.Config, *[]string) {
	log := &[]string{}
	aut := cfg.Automaton
	cfg.Automaton = func(i int) giraf.Automaton { return viewLogger{aut(i), i, log} }
	return cfg, log
}

// TestDominanceSkipStructurallyIdentical is the property test for the
// dominance-aware merge skipping: for every policy/scenario combination,
// a run with skipping enabled must produce round views structurally
// identical — payload key for payload key, process for process, round for
// round — to the same run with skipping disabled (every envelope merged
// element-wise), and identical Results up to the MergesSkipped counter
// itself. Soundness argument in PERFORMANCE.md: merges are idempotent and
// monotone, and fingerprint equality is structural equality, so a
// dominated envelope cannot change any round view.
func TestDominanceSkipStructurallyIdentical(t *testing.T) {
	n := 12
	props := DistinctProposals(n)
	lossy := &env.Scenario{Seed: 5, LossPct: 20}
	duppy := &env.Scenario{Seed: 9, DupPct: 35}
	// policy is a factory: seeded policies are stateful (their RNG stream
	// advances across Schedule calls), so each run needs a fresh one.
	cases := []struct {
		name     string
		config   func(opts RunOpts) sim.Config
		policy   func() env.Policy
		scenario *env.Scenario
	}{
		{"ES synchronous", func(o RunOpts) sim.Config { return ConfigES(props, o) },
			func() env.Policy { return env.Synchronous{} }, nil},
		{"ES under MS", func(o RunOpts) sim.Config { return ConfigES(props, o) },
			func() env.Policy { return &env.MS{Seed: 21, MaxDelay: 3} }, nil},
		{"ES under ES policy lossy", func(o RunOpts) sim.Config { return ConfigES(props, o) },
			func() env.Policy { return &env.ES{GST: 10, Pre: env.MS{Seed: 4, MaxDelay: 2}} }, lossy},
		{"ES duplicating", func(o RunOpts) sim.Config { return ConfigES(props, o) },
			func() env.Policy { return env.Synchronous{} }, duppy},
		{"ESS under MS", func(o RunOpts) sim.Config { return ConfigESS(props, o) },
			func() env.Policy {
				return &env.ESS{GST: 8, StableSource: n - 1, Pre: env.MS{Seed: 13, Alternate: true}}
			}, nil},
		{"ESS lossy duplicating", func(o RunOpts) sim.Config { return ConfigESS(props, o) },
			func() env.Policy { return &env.ESS{GST: 8, StableSource: 0, Pre: env.MS{Seed: 2, MaxDelay: 2}} },
			&env.Scenario{Seed: 1, LossPct: 10, DupPct: 25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(forceFull bool) (*sim.Result, []string) {
				prev := giraf.ForceFullMergeForTest(forceFull)
				defer giraf.ForceFullMergeForTest(prev)
				cfg, log := logRoundViews(tc.config(RunOpts{
					Policy:    tc.policy(),
					Scenario:  tc.scenario,
					MaxRounds: 60,
				}))
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, *log
			}
			skipped, skippedLog := run(false)
			full, fullLog := run(true)

			if len(skippedLog) != len(fullLog) {
				t.Fatalf("computed views differ in number: %d vs %d", len(skippedLog), len(fullLog))
			}
			for i := range skippedLog {
				if skippedLog[i] != fullLog[i] {
					t.Fatalf("round view %d diverged:\n skip: %s\n full: %s",
						i, skippedLog[i], fullLog[i])
				}
			}
			if full.Metrics.MergesSkipped != 0 {
				t.Errorf("forced-full run still skipped %d merges", full.Metrics.MergesSkipped)
			}
			// Results must agree on everything except the skip counter.
			fm, sm := full.Metrics, skipped.Metrics
			sm.MergesSkipped, fm.MergesSkipped = 0, 0
			if fm != sm {
				t.Errorf("metrics diverged:\n skip: %+v\n full: %+v", sm, fm)
			}
			if full.Rounds != skipped.Rounds {
				t.Errorf("rounds diverged: %d vs %d", skipped.Rounds, full.Rounds)
			}
			for i := range full.Statuses {
				if full.Statuses[i] != skipped.Statuses[i] {
					t.Errorf("process %d status diverged:\n skip: %+v\n full: %+v",
						i, skipped.Statuses[i], full.Statuses[i])
				}
			}
		})
	}
}

// TestDominanceSkipEngages pins that the fast path actually fires where it
// should: a fault-free synchronous ES run converges, and from then on
// every rebroadcast is fingerprint-identical, so a healthy fraction of
// deliveries must skip their merges.
func TestDominanceSkipEngages(t *testing.T) {
	props := SplitProposals(16, 2)
	res, err := RunES(props, RunOpts{Policy: env.Synchronous{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() {
		t.Fatal("run did not decide")
	}
	if res.Metrics.MergesSkipped == 0 {
		t.Error("no merge was ever skipped in a converging synchronous run")
	}
	if res.Metrics.MergesSkipped >= res.Metrics.Deliveries {
		t.Errorf("skips %d must stay below deliveries %d (skipped deliveries still count)",
			res.Metrics.MergesSkipped, res.Metrics.Deliveries)
	}
}

// TestPayloadEncodedSizeContract pins PayloadEncodedSize() ==
// len(PayloadKey()) for every payload type the simulator accounts, so the
// envelopeBytes fast path cannot drift from the canonical encoding.
func TestPayloadEncodedSizeContract(t *testing.T) {
	set := values.NewSet("a", "bb", "⊥")
	payloads := []giraf.Payload{
		SetPayload{Proposed: set},
		SetPayload{Proposed: values.NewSet()},
		MakeESSPayload(set, values.History{}, values.Counters{}),
	}
	for _, p := range payloads {
		s, ok := p.(giraf.PayloadSizer)
		if !ok {
			t.Fatalf("%T does not implement PayloadSizer", p)
		}
		if got, want := s.PayloadEncodedSize(), len(p.PayloadKey()); got != want {
			t.Errorf("%T: PayloadEncodedSize() = %d, len(PayloadKey()) = %d", p, got, want)
		}
	}
}
