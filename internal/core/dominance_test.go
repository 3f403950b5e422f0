package core

import (
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// viewLogger wraps an automaton and logs every round view it computes
// from: a fingerprint of its payloads' fingerprints in iteration order,
// which is canonical key order. The view is taken at compute time, the last
// moment it exists for a round-local process. Two runs with equal logs
// agreed on every round view every process ever computed from.
type viewLogger struct {
	giraf.Automaton
	i   int
	log *[]roundView
}

// roundView is one logged round view.
type roundView struct {
	round, proc int
	view        values.Fingerprint
}

func (v viewLogger) Compute(k int, in giraf.Inbox) (giraf.Payload, giraf.Decision) {
	var h values.Hasher
	for _, p := range in.Round(k) {
		if fp, ok := p.(giraf.Fingerprinted); ok {
			h.WriteFingerprint(fp.PayloadFingerprint())
		} else {
			h.WriteFingerprint(values.FingerprintString(p.PayloadKey()))
		}
	}
	*v.log = append(*v.log, roundView{k, v.i, h.Sum()})
	return v.Automaton.Compute(k, in)
}

// localViewLogger is a viewLogger that keeps the wrapped automaton's
// giraf.RoundLocal marker, so the process still recycles a round once
// computed and still takes shared rounds.
type localViewLogger struct{ viewLogger }

func (localViewLogger) ReadsOnlyRound() {}

// logRoundViews wraps every automaton of cfg in a view logger that keeps
// its RoundLocal marker, or its lack of one.
func logRoundViews(cfg sim.Config) (sim.Config, *[]roundView) {
	log := &[]roundView{}
	aut := cfg.Automaton
	cfg.Automaton = func(i int) giraf.Automaton {
		a := aut(i)
		v := viewLogger{a, i, log}
		if _, ok := a.(giraf.RoundLocal); ok {
			return localViewLogger{v}
		}
		return v
	}
	return cfg, log
}

// TestDominanceSkipEngages pins where MergesSkipped counts: the deliveries
// a shared round absorbed. A fault-free synchronous ES run with two camps
// shares its rounds once the camps' sets stop colliding, so some but not
// all deliveries are absorbed; the same run under a partition that never
// comes into force delivers every envelope per receiver and absorbs none.
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
		t.Error("no delivery was ever absorbed by a shared round in a converging synchronous run")
	}
	if res.Metrics.MergesSkipped >= res.Metrics.Deliveries {
		t.Errorf("shared deliveries %d must stay below deliveries %d (the two-camp round is not shared)",
			res.Metrics.MergesSkipped, res.Metrics.Deliveries)
	}
	never := &env.Scenario{Partitions: []env.Partition{{From: 1000, Until: 1001, Cut: 1}}}
	res, err = RunES(props, RunOpts{Policy: env.Synchronous{}, Scenario: never})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrectDecided() || res.Metrics.MergesSkipped != 0 {
		t.Errorf("under a never-active partition: decided %v, shared deliveries %d, want true and 0",
			res.AllCorrectDecided(), res.Metrics.MergesSkipped)
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
