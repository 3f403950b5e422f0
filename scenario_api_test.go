package anonconsensus_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	ac "anonconsensus"
)

// TestPartitionPreventsConsensusUntilHealed is the scenario plane's core
// property, on the deterministic sim backend. In an anonymous network a
// partitioned block is indistinguishable from a smaller complete network,
// so each block of a never-healing partition independently "solves"
// consensus for its own values — which is precisely the absence of
// system-wide consensus (split-brain divergence). A partition that heals
// before the blocks can commit leaves the ensemble with one agreed value.
func TestPartitionPreventsConsensusUntilHealed(t *testing.T) {
	proposals := []ac.Value{"a", "a", "b", "b"} // distinct value per block
	run := func(p ac.Partition) *ac.Result {
		t.Helper()
		node, err := ac.NewNode(ac.NewSimTransport(),
			ac.WithEnv(ac.EnvES), ac.WithGST(6), ac.WithSeed(3),
			ac.WithPartition(p.From, p.Until, p.Cut))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		res, err := node.Run(context.Background(), "t", proposals)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	split := run(ac.Partition{From: 1, Until: 0, Cut: 2}) // never heals
	if _, ok := split.Agreed(); ok {
		t.Error("never-healing partition must prevent system-wide consensus")
	}
	decided := map[ac.Value]bool{}
	for _, d := range split.Decisions {
		if d.Decided {
			decided[d.Value] = true
		}
	}
	if len(decided) < 2 {
		t.Errorf("expected split-brain (≥ 2 decided values), got %v", decided)
	}

	healed := run(ac.Partition{From: 1, Until: 2, Cut: 2})
	v, ok := healed.Agreed()
	if !ok {
		t.Fatalf("healed partition must recover consensus: %+v", healed.Decisions)
	}
	if v != "b" {
		t.Errorf("agreed on %q, want the maximum proposal \"b\"", v)
	}
}

func TestLossyESStillDecidesAtLowRates(t *testing.T) {
	// Mild loss delays convergence but the ES run still terminates; the
	// run is deterministic, so this is a pinned behavior, not a flake.
	res, err := ac.RunOnceForTest(ac.NewSimTransport(), []ac.Value{"x", "y", "z"}, ac.WithGST(6), ac.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := res.Agreed()

	node, err := ac.NewNode(ac.NewSimTransport(),
		ac.WithEnv(ac.EnvES), ac.WithGST(6), ac.WithSeed(1), ac.WithLoss(5))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	lossy, err := node.Run(context.Background(), "lossy", []ac.Value{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := lossy.Agreed(); !ok || v != baseline {
		t.Errorf("lossy run agreed=(%q,%v), fault-free baseline %q", v, ok, baseline)
	}
}

func TestDuplicationIsInvisibleToDecisions(t *testing.T) {
	// 100% duplication must not change any decision or round: the inbox
	// set semantics dedup every copy.
	run := func(opts ...ac.Option) *ac.Result {
		t.Helper()
		base := []ac.Option{ac.WithEnv(ac.EnvES), ac.WithGST(5), ac.WithSeed(9)}
		node, err := ac.NewNode(ac.NewSimTransport(), append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		res, err := node.Run(context.Background(), "d", []ac.Value{"p", "q", "r", "s"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, duped := run(), run(ac.WithDuplication(100))
	if !reflect.DeepEqual(plain.Decisions, duped.Decisions) || plain.Rounds != duped.Rounds {
		t.Errorf("duplication changed the run:\nplain %+v\nduped %+v", plain, duped)
	}
}

func TestWithCrashesEagerValidation(t *testing.T) {
	for name, crashes := range map[string]map[int]int{
		"negative pid": {-1: 3},
		"round zero":   {0: 0},
		"negative rd":  {1: -2},
	} {
		if _, err := ac.NewNode(ac.NewSimTransport(), ac.WithCrashes(crashes)); err == nil {
			t.Errorf("%s: WithCrashes accepted %v", name, crashes)
		}
	}
	// Out-of-range pids surface at spec-build time (Propose), not at run
	// time.
	node, err := ac.NewNode(ac.NewSimTransport(), ac.WithCrashes(map[int]int{7: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	err = node.Propose(context.Background(), "x", []ac.Value{"a", "b"})
	if err == nil || !strings.Contains(err.Error(), "outside [0,2)") {
		t.Errorf("out-of-range crash pid not rejected at Propose: %v", err)
	}
}

func TestAllCrashedRejected(t *testing.T) {
	node, err := ac.NewNode(ac.NewSimTransport(),
		ac.WithCrashes(map[int]int{0: 1, 1: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	err = node.Propose(context.Background(), "doomed", []ac.Value{"a", "b"})
	if !errors.Is(err, ac.ErrAllCrashed) {
		t.Errorf("err = %v, want ErrAllCrashed", err)
	}
	// The smallest doomed ensemble: one process, crashed.
	_, err = ac.RunOnceForTest(ac.NewSimTransport(), []ac.Value{"a"}, ac.WithCrashes(map[int]int{0: 1}))
	if !errors.Is(err, ac.ErrAllCrashed) {
		t.Errorf("n=1 err = %v, want ErrAllCrashed", err)
	}
}

func TestScenarioOptionValidation(t *testing.T) {
	bad := []ac.Option{
		ac.WithLoss(-1),
		ac.WithLoss(101),
		ac.WithDuplication(400),
		ac.WithPartition(0, 5, 1), // from < 1
		ac.WithPartition(5, 5, 1), // heals before start
		ac.WithPartition(1, 0, 0), // cut separates nobody
		ac.WithScenario(ac.Scenario{LossPct: -4}),
		ac.WithScenario(ac.Scenario{Crashes: map[int]int{0: 0}}),
	}
	for i, opt := range bad {
		if _, err := ac.NewNode(ac.NewSimTransport(), opt); err == nil {
			t.Errorf("option %d accepted", i)
		}
	}
	// Partition cut ≥ n is an ensemble-dependent error: caught at Propose.
	node, err := ac.NewNode(ac.NewSimTransport(), ac.WithPartition(1, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Propose(context.Background(), "p", []ac.Value{"a", "b"}); err == nil {
		t.Error("partition cut ≥ n accepted at Propose")
	}
}

func TestWithScenarioComposesWithWithCrashes(t *testing.T) {
	// WithScenario with nil Crashes must preserve an earlier WithCrashes
	// schedule; a later WithCrashes overrides the scenario's.
	node, err := ac.NewNode(ac.NewSimTransport(),
		ac.WithCrashes(map[int]int{1: 3}),
		ac.WithScenario(ac.Scenario{LossPct: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	res, err := node.Run(context.Background(), "c", []ac.Value{"a", "b", "c"},
		ac.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decisions[1].Crashed {
		t.Error("WithScenario dropped the WithCrashes schedule")
	}
}

func TestRandomScenarioReproducible(t *testing.T) {
	a, b := ac.RandomScenario(7, 8), ac.RandomScenario(7, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("RandomScenario not reproducible")
	}
	if reflect.DeepEqual(ac.RandomScenario(7, 8), ac.RandomScenario(8, 8)) {
		t.Error("RandomScenario ignores the seed")
	}
	// A random adversary is a valid option set for its ensemble size.
	node, err := ac.NewNode(ac.NewSimTransport(), ac.WithScenario(ac.RandomScenario(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	props := make([]ac.Value, 8)
	for i := range props {
		props[i] = ac.NumValue(int64(i))
	}
	if err := node.Propose(context.Background(), "r", props); err != nil {
		t.Fatalf("random adversary rejected: %v", err)
	}
}

// TestScenarioSweepBatchDeterministic pins a scenario sweep on one Node
// over the sim transport: the same grid of scenario'd instances yields
// byte-identical rendered results with 1, 4 and NumCPU instances in flight.
func TestScenarioSweepBatchDeterministic(t *testing.T) {
	render := func(inFlight int) string {
		node, err := ac.NewNode(ac.NewSimTransport(),
			ac.WithEnv(ac.EnvES), ac.WithGST(8), ac.WithMaxInFlight(inFlight))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		ctx := context.Background()
		for seed := int64(0); seed < 10; seed++ {
			err := node.Propose(ctx, fmt.Sprint(seed), []ac.Value{"a", "b", "c", "d"},
				ac.WithSeed(seed),
				ac.WithLoss(int(seed%4*10)),
				ac.WithDuplication(int(seed%3*20)),
				ac.WithPartition(1, 2+int(seed%5), 2),
			)
			if err != nil {
				t.Fatalf("in-flight %d: %v", inFlight, err)
			}
		}
		var b strings.Builder
		for i := 0; i < 10; i++ {
			r, err := node.Wait(ctx, fmt.Sprint(i))
			if err != nil {
				t.Fatalf("in-flight %d: %v", inFlight, err)
			}
			fmt.Fprintf(&b, "item %d rounds=%d", i, r.Rounds)
			for _, d := range r.Decisions {
				fmt.Fprintf(&b, " p%d=%v/%q@%d", d.Proc, d.Decided, string(d.Value), d.Round)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	want := render(1)
	for _, k := range []int{4, runtime.NumCPU()} {
		if got := render(k); got != want {
			t.Errorf("scenario sweep diverged between 1 and %d in flight:\nwant:\n%s\ngot:\n%s", k, want, got)
		}
	}
}

// TestScenarioOverTCPTransport exercises the hub-level fault injection end
// to end on both shapes of the TCP plane: 100% duplication doubles every
// forward, set-semantics dedup keeps consensus intact.
func TestScenarioOverTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP round trips in -short mode")
	}
	for _, transport := range []ac.Transport{ac.NewTCPTransport(), ac.NewTCPMuxTransport()} {
		t.Run(transport.Name(), func(t *testing.T) {
			node, err := ac.NewNode(transport,
				ac.WithEnv(ac.EnvES), ac.WithGST(2), ac.WithSeed(5),
				ac.WithDuplication(100),
				ac.WithInterval(8*time.Millisecond), ac.WithTimeout(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			res, err := node.Run(context.Background(), "tcp-dup", []ac.Value{"a", "b", "c"})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.Agreed(); !ok {
				t.Fatalf("no agreement under duplication: %+v", res.Decisions)
			}
		})
	}
}

// TestScenarioOverLiveTransport runs the partition split-brain through the
// public live backend.
func TestScenarioOverLiveTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("live round trips in -short mode")
	}
	node, err := ac.NewNode(ac.NewLiveTransport(),
		ac.WithEnv(ac.EnvES), ac.WithGST(0), ac.WithSeed(1),
		ac.WithPartition(1, 0, 2),
		ac.WithInterval(5*time.Millisecond), ac.WithTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	res, err := node.Run(context.Background(), "live-part", []ac.Value{"a", "a", "z", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Agreed(); ok {
		t.Error("never-healing partition must split the live ensemble too")
	}
}

// TestHandBuiltSpecScenarioCrashesHonored pins that a spec built by hand
// (not via the options API) carries its crash schedule in Scenario.Crashes
// — the only place there is — and that it reaches the backend.
func TestHandBuiltSpecScenarioCrashesHonored(t *testing.T) {
	transport := ac.NewSimTransport()
	defer transport.Close()
	res, err := transport.Run(context.Background(), ac.InstanceSpec{
		ID:        "hand-built",
		Proposals: []ac.Value{"a", "b", "c"},
		Env:       ac.EnvES,
		GST:       4,
		Seed:      1,
		Scenario:  ac.Scenario{Crashes: map[int]int{1: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decisions[1].Crashed {
		t.Errorf("scenario-only crash schedule ignored: %+v", res.Decisions[1])
	}
	if _, ok := res.Agreed(); !ok {
		t.Errorf("survivors should agree: %+v", res.Decisions)
	}
}

// TestHandBuiltSpecScenarioValidated pins the one validation every
// transport applies to a hand-built spec's fault description: the same
// malformed crash schedule is rejected, with the same message, on the
// simulator, the live plane and the TCP mux — nothing backend-specific is
// left to disagree about (round 0 used to mean three different things).
func TestHandBuiltSpecScenarioValidated(t *testing.T) {
	cases := []struct {
		name    string
		env     ac.Environment
		crashes map[int]int
		wantErr string // substring; "" means errors.Is(err, ErrAllCrashed)
	}{
		{"round zero", ac.EnvES, map[int]int{1: 0}, "crash round 0 for process 1 (must be ≥ 1)"},
		{"negative pid", ac.EnvES, map[int]int{-1: 2}, "crash schedule names negative process -1"},
		{"pid out of range", ac.EnvES, map[int]int{3: 2}, "crash schedule names process 3 outside [0,3)"},
		{"all crashed", ac.EnvES, map[int]int{0: 1, 1: 2, 2: 3}, ""},
		{"crashed stable source", ac.EnvESS, map[int]int{0: 2}, "the stable source must stay correct"},
	}
	transports := []func() ac.Transport{ac.NewSimTransport, ac.NewLiveTransport, ac.NewTCPMuxTransport}
	for _, tc := range cases {
		var first string
		for _, mk := range transports {
			transport := mk()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := transport.Run(ctx, ac.InstanceSpec{
				ID:        "hand-built",
				Proposals: []ac.Value{"a", "b", "c"},
				Env:       tc.env,
				Interval:  time.Second, // nothing may start, let alone decide
				Scenario:  ac.Scenario{Crashes: tc.crashes},
			})
			cancel()
			name := transport.Name()
			_ = transport.Close()
			switch {
			case err == nil:
				t.Errorf("%s on %s: accepted", tc.name, name)
				continue
			case tc.wantErr == "" && !errors.Is(err, ac.ErrAllCrashed):
				t.Errorf("%s on %s: err = %v, want ErrAllCrashed", tc.name, name, err)
			case !strings.Contains(err.Error(), tc.wantErr):
				t.Errorf("%s on %s: err = %v, want it to mention %q", tc.name, name, err, tc.wantErr)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: %s says %q, the first transport said %q", tc.name, name, err, first)
			}
		}
	}
}
