package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonconsensus/internal/env"
	"anonconsensus/internal/values"
)

// Property-based safety tests: Validity and Agreement must hold for *every*
// schedule in the algorithm's environment, so they are checked over
// machine-generated configurations rather than hand-picked ones.

// safetyInput is a randomly generated run configuration.
type safetyInput struct {
	seed     int64
	n        int
	distinct int
	gst      int
	crashPid int
	crashAt  int
}

func newSafetyInput(seed uint32, nRaw, distinctRaw, gstRaw, crashPidRaw, crashAtRaw uint8) safetyInput {
	n := 2 + int(nRaw%6)
	return safetyInput{
		seed:     int64(seed),
		n:        n,
		distinct: 1 + int(distinctRaw)%n,
		gst:      int(gstRaw % 24),
		crashPid: int(crashPidRaw) % n,
		crashAt:  1 + int(crashAtRaw%12),
	}
}

func TestQuickESFullConsensusUnderES(t *testing.T) {
	f := func(seed uint32, nRaw, distinctRaw, gstRaw, crashPidRaw, crashAtRaw uint8) bool {
		in := newSafetyInput(seed, nRaw, distinctRaw, gstRaw, crashPidRaw, crashAtRaw)
		props := SplitProposals(in.n, in.distinct)
		crashes := map[int]int{}
		if in.n > 1 {
			crashes[in.crashPid] = in.crashAt
		}
		res, err := RunES(props, RunOpts{
			Policy:    &env.ES{GST: in.gst, Pre: env.MS{Seed: in.seed, Alternate: in.seed%2 == 0}},
			Scenario:  &env.Scenario{Crashes: crashes},
			MaxRounds: 400,
		})
		if err != nil {
			return false
		}
		return len(res.Check(ProposalSet(props), nil, true)) == 0
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickESSFullConsensusUnderESS(t *testing.T) {
	f := func(seed uint32, nRaw, distinctRaw, gstRaw, crashPidRaw, crashAtRaw uint8) bool {
		in := newSafetyInput(seed, nRaw, distinctRaw, gstRaw, crashPidRaw, crashAtRaw)
		props := SplitProposals(in.n, in.distinct)
		src := int(seed) % in.n
		crashes := map[int]int{}
		if in.crashPid != src {
			crashes[in.crashPid] = in.crashAt
		}
		res, err := RunESS(props, RunOpts{
			Policy:    &env.ESS{GST: in.gst, StableSource: src, Pre: env.MS{Seed: in.seed, Alternate: in.seed%2 == 0}},
			Scenario:  &env.Scenario{Crashes: crashes},
			MaxRounds: 700,
		})
		if err != nil {
			return false
		}
		return len(res.Check(ProposalSet(props), nil, true)) == 0
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickESSafetyUnderArbitraryMS(t *testing.T) {
	if testing.Short() {
		t.Skip("slow suite in -short mode")
	}
	// Liveness may fail (plain MS), safety must not.
	f := func(seed uint32, nRaw, distinctRaw, periodRaw, timelyRaw uint8) bool {
		n := 2 + int(nRaw%5)
		props := SplitProposals(n, 1+int(distinctRaw)%n)
		res, err := RunES(props, RunOpts{
			Policy: &env.MS{
				Seed:           int64(seed),
				MaxDelay:       1 + int(periodRaw%5),
				RotationPeriod: 1 + int(periodRaw%3),
				Shuffle:        seed%3 == 0,
				Alternate:      seed%5 == 0,
				ExtraTimelyPct: int(timelyRaw % 60),
			},
			MaxRounds: 60,
		})
		if err != nil {
			return false
		}
		return len(res.Check(ProposalSet(props), nil, false)) == 0
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickESSSafetyUnderArbitraryMS(t *testing.T) {
	if testing.Short() {
		t.Skip("slow suite in -short mode")
	}
	f := func(seed uint32, nRaw, distinctRaw, periodRaw, timelyRaw uint8) bool {
		n := 2 + int(nRaw%5)
		props := SplitProposals(n, 1+int(distinctRaw)%n)
		res, err := RunESS(props, RunOpts{
			Policy: &env.MS{
				Seed:           int64(seed),
				MaxDelay:       1 + int(periodRaw%5),
				RotationPeriod: 1 + int(periodRaw%3),
				Shuffle:        seed%3 == 0,
				Alternate:      seed%5 == 0,
				ExtraTimelyPct: int(timelyRaw % 60),
			},
			MaxRounds: 60,
		})
		if err != nil {
			return false
		}
		return len(res.Check(ProposalSet(props), nil, false)) == 0
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDecisionIsStableMaximum(t *testing.T) {
	// Under synchrony from round 1 the decided value is exactly the
	// maximum proposal, for any proposal multiset.
	f := func(raws []uint8) bool {
		if len(raws) == 0 {
			return true
		}
		if len(raws) > 12 {
			raws = raws[:12]
		}
		props := make([]values.Value, len(raws))
		max := values.Value("")
		for i, r := range raws {
			props[i] = values.Num(int64(r))
			if max == "" || max.Less(props[i]) {
				max = props[i]
			}
		}
		res, err := RunES(props, RunOpts{Policy: env.Synchronous{}})
		if err != nil || !res.AllCorrectDecided() {
			return false
		}
		d, ok := res.Decisions().Max()
		return ok && d == max && res.Decisions().Len() == 1
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
