package fd

import (
	"strings"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
)

func TestProp4DisprovesTimeoutQuorum(t *testing.T) {
	for _, window := range []int{1, 3, 10} {
		h := &Prop4Harness{New: func() SigmaCandidate { return &TimeoutQuorum{Window: window} }}
		v, err := h.Disprove()
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != "intersection" {
			t.Errorf("window %d: violation kind %q, want intersection (%s)", window, v.Kind, v.Detail)
		}
		if v.RunOneRound <= 0 || v.RunTwoRound <= v.RunOneRound {
			t.Errorf("window %d: implausible rounds in %+v", window, v)
		}
	}
}

func TestProp4DisprovesMajorityStick(t *testing.T) {
	h := &Prop4Harness{New: func() SigmaCandidate { return &MajorityStick{Silence: 4} }}
	v, err := h.Disprove()
	if err != nil {
		t.Fatal(err)
	}
	// Either it eventually drops the silent process (intersection violated
	// via the two-run construction) or it never does (completeness
	// violated). Both disprove Σ-ness.
	if v.Kind != "intersection" && v.Kind != "completeness" {
		t.Errorf("unexpected kind %q", v.Kind)
	}
}

func TestProp4DisprovesEagerSelf(t *testing.T) {
	h := &Prop4Harness{New: func() SigmaCandidate { return &EagerSelf{} }}
	v, err := h.Disprove()
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != "intersection" {
		t.Errorf("kind = %q (%s)", v.Kind, v.Detail)
	}
	if !strings.Contains(v.Detail, "indistinguishable") {
		t.Errorf("detail should explain the construction: %s", v.Detail)
	}
}

// foreverAll never satisfies completeness: it trusts everybody forever.
type foreverAll struct{ n int }

func (c *foreverAll) Init(id, n int) { c.n = n }
func (c *foreverAll) Round(k int, heard []int) []int {
	out := make([]int, c.n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestProp4ReportsCompletenessFailure(t *testing.T) {
	h := &Prop4Harness{New: func() SigmaCandidate { return &foreverAll{} }, Horizon: 50}
	v, err := h.Disprove()
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != "completeness" {
		t.Errorf("kind = %q, want completeness", v.Kind)
	}
}

func TestProp4RejectsNilFactory(t *testing.T) {
	if _, err := (&Prop4Harness{}).Disprove(); err == nil {
		t.Error("nil factory must error")
	}
}

func TestOmegaTrackerStabilizesOnSource(t *testing.T) {
	// Known-network Ω under an eventually-stable-source schedule: after
	// enough rounds past GST every process's leader estimate is the source.
	n, gst, src := 5, 10, 3
	trackers := make([]*OmegaTracker, n)
	res, err := sim.Run(sim.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			trackers[i] = NewOmegaTracker(i)
			return trackers[i]
		},
		Policy:    &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: 7}},
		MaxRounds: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 150 {
		t.Fatalf("run ended early at %d", res.Rounds)
	}
	for i, tr := range trackers {
		if got := tr.Leader(); got != src {
			t.Errorf("process %d elects %d, want source %d", i, got, src)
		}
	}
}

func TestOmegaTrackerAgreesUnderSynchrony(t *testing.T) {
	// Fully synchronous: everyone hears everyone every round; ties break to
	// the smallest ID, so all agree on process 0.
	n := 4
	trackers := make([]*OmegaTracker, n)
	_, err := sim.Run(sim.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			trackers[i] = NewOmegaTracker(i)
			return trackers[i]
		},
		Policy:    env.Synchronous{},
		MaxRounds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trackers {
		if got := tr.Leader(); got != 0 {
			t.Errorf("process %d elects %d, want 0", i, got)
		}
	}
	if !trackers[0].IsLeader() || trackers[1].IsLeader() {
		t.Error("IsLeader inconsistent with Leader")
	}
}

func TestOmegaConvergenceRound(t *testing.T) {
	// Measure when the leader estimate stabilizes (T4's ID-based baseline):
	// it must be within a few rounds of GST.
	n, gst, src := 4, 8, 2
	trackers := make([]*OmegaTracker, n)
	converged := -1
	_, err := sim.Run(sim.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			trackers[i] = NewOmegaTracker(i)
			return trackers[i]
		},
		Policy:    &env.ESS{GST: gst, StableSource: src, Pre: env.MS{Seed: 11}},
		MaxRounds: 200,
		OnRound: func(r int, e *sim.Engine) {
			all := true
			for _, tr := range trackers {
				if tr.Leader() != src {
					all = false
					break
				}
			}
			if all && converged < 0 {
				converged = r
			} else if !all {
				converged = -1 // must stay converged to count
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if converged < 0 {
		t.Fatal("leader estimates never stabilized on the source")
	}
}

func TestOmegaTrackerCount(t *testing.T) {
	trackers := make([]*OmegaTracker, 2)
	_, err := sim.Run(sim.Config{
		N: 2,
		Automaton: func(i int) giraf.Automaton {
			trackers[i] = NewOmegaTracker(i)
			return trackers[i]
		},
		Policy:    env.Synchronous{},
		MaxRounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trackers[0].Count(1) == 0 {
		t.Error("counts of a timely peer must grow")
	}
	if trackers[0].Count(99) != 0 {
		t.Error("unknown id must count 0")
	}
}
