package anonconsensus_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
	"anonconsensus/internal/weakset"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens (parity_golden.txt, api_surface.txt) from the current implementation")

// TestParityGolden pins deterministic fixed-seed behavior byte for byte
// against testdata/parity_golden.txt, which was generated from the
// pre-canonical-form-refactor implementation. It covers decisions,
// decision rounds, total rounds, and — crucially for experiment T6 — the
// metrics counters (broadcasts, deliveries, canonical payload bytes, max
// envelope size). Any representation change that alters algorithm
// behavior, delivery accounting or canonical encodings shows up here as a
// diff, not as a silent drift.
//
// Regenerate intentionally with: go test -run TestParityGolden -update .
func TestParityGolden(t *testing.T) {
	got := parityReport()
	want, err := os.ReadFile("testdata/parity_golden.txt")
	if *updateGolden {
		if err := os.WriteFile("testdata/parity_golden.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("parity golden rewritten")
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fixed-seed behavior diverged from the pinned golden.\nDiff the output of `go test -run TestParityGolden -v` against testdata/parity_golden.txt.\n--- got ---\n%s", diffHint(string(want), got))
	}
}

// diffHint returns the first diverging line pair to keep failures readable.
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}

func parityReport() string {
	var b strings.Builder
	dump := func(name string, res *sim.Result, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: ERR %v\n", name, err)
			return
		}
		fmt.Fprintf(&b, "%s: rounds=%d bcast=%d deliv=%d bytes=%d maxenv=%d\n", name,
			res.Rounds, res.Metrics.Broadcasts, res.Metrics.Deliveries,
			res.Metrics.PayloadBytes, res.Metrics.MaxEnvelopeBytes)
		for i, st := range res.Statuses {
			fmt.Fprintf(&b, "  p%d decided=%v val=%q at=%d crashed=%v last=%d\n",
				i, st.Decided, string(st.Decision), st.DecidedAt, st.Crashed, st.LastRound)
		}
	}

	for _, seed := range []int64{1, 3, 7, 42} {
		props := core.DistinctProposals(5)
		res, err := core.RunES(props, core.RunOpts{
			Policy: &env.ES{GST: 6, Pre: env.MS{Seed: seed}},
		})
		dump(fmt.Sprintf("ES n=5 gst=6 seed=%d", seed), res, err)
	}
	for _, seed := range []int64{1, 3, 9} {
		props := core.DistinctProposals(6)
		res, err := core.RunESS(props, core.RunOpts{
			Policy:    &env.ESS{GST: 8, StableSource: 2, Pre: env.MS{Seed: seed}},
			MaxRounds: 600,
		})
		dump(fmt.Sprintf("ESS n=6 gst=8 src=2 seed=%d", seed), res, err)
	}
	res, err := core.RunES(core.DistinctProposals(4), core.RunOpts{
		Policy:   &env.ES{GST: 8, Pre: env.MS{Seed: 42}},
		Scenario: &env.Scenario{Crashes: map[int]int{0: 3}},
	})
	dump("ES n=4 crash0@3 seed=42", res, err)
	res, err = core.RunES(core.DistinctProposals(32), core.RunOpts{
		Policy: &env.ES{GST: 4, Pre: env.MS{Seed: 5}},
	})
	dump("ES n=32 gst=4 seed=5", res, err)
	res, err = core.RunOmega(core.DistinctProposals(5), func(i int) core.LeaderOracle {
		return func(round int) bool { return i == 0 }
	}, core.RunOpts{Policy: &env.ESS{GST: 6, StableSource: 0, Pre: env.MS{Seed: 11}}})
	dump("Omega n=5 seed=11", res, err)

	ops := []weakset.ScheduledOp{
		{Proc: 0, Round: 1, Kind: weakset.OpAdd, Value: values.Num(1)},
		{Proc: 2, Round: 3, Kind: weakset.OpAdd, Value: values.Num(2)},
		{Proc: 1, Round: 5, Kind: weakset.OpGet},
	}
	wres, err := weakset.RunMS(5, ops, &env.MS{Seed: 4, MaxDelay: 3}, 80, nil)
	if err != nil {
		fmt.Fprintln(&b, "weakset ERR", err)
	} else {
		for _, r := range wres.CompletedAdds() {
			fmt.Fprintf(&b, "weakset add %q enq=%d start=%d done=%d\n", string(r.Value), r.Enqueued, r.Started, r.Completed)
		}
		fmt.Fprintf(&b, "weakset sim rounds=%d bytes=%d\n", wres.Sim.Rounds, wres.Sim.Metrics.PayloadBytes)
	}

	props5 := core.DistinctProposals(5)
	cres, err := sim.Run(sim.Config{
		N: 5, Automaton: func(i int) giraf.Automaton { return core.NewES(props5[i]) },
		Policy: &env.ES{GST: 6, Pre: env.MS{Seed: 1}}, MaxRounds: 250,
	})
	dump("ES n=5 compact seed=1", cres, err)
	return b.String()
}
